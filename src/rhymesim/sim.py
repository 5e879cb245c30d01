"""Deterministic discrete-event simulation of the rollout/reward/train pipeline.

One simulated step replays one trace epoch: every response's content comes
from the trace, its iteration profile from its HistoSpec replay or, when it
is not speculated, one token per iteration, and the event loop only decides
*when* things happen. Time is an int count of ticks (1 ns): every duration
of `CostConfig` and `ClusterSpec` is rounded to ticks once (`_Ticks`), and
the log writes each time as ticks / 1e9 seconds, in the simulator's order.

A rollout worker batches at iteration boundaries, as Orca and vLLM schedule:
its batch advances one iteration per `t_iter(batch)` ticks and changes only
between iterations. A worker keeps the tick of its last batch change,
`boundary`, and its iterations `v` since its step began; its next boundaries
fall at `boundary + k * t_iter`. A response in the batch stores the counts
`v_start`, at its progress 0, and `v_end`, when it leaves the batch: at
`v_start + total_iters` it finishes.
- A dealt response joins the batch when its worker starts the step.
- A migrating rollout leaves at its worker's first boundary at or after the
  check that moves it, with the whole iterations done by then. A check reads
  each rollout as it would leave; one that has run all its iterations by
  then is finished and never moves.
- A migrant pays the prefill recompute of its generated tokens from the later
  of the tick it left and the tick a worker takes it, and joins the batch at
  the worker's first boundary at or after its prefill ends (at once into an
  empty batch).

The queue is a heap of `(tick, seq, handler, args)` entries, and the loop
pops the earliest and calls `handler(*args)`. Each push draws one `seq` from
the counter that also numbers the log's records, so events of one tick run
in the order they were queued. So, at one tick: an event queued for the
current tick runs after every one already queued for it; two workers'
boundaries run in the order the workers last rescheduled, and the first
one's check reads the other's rollouts that end there as finished; within a
boundary, the rollouts that end leave first (the finished ones logged by
sample id), then the ready joins enter, then the migration check runs, and a
rollout it moves off this worker leaves in a boundary queued for that tick.
Two runs with the same inputs produce byte-identical event logs.

Weight version v is the one step v+1 rolls out under: every response of
step k rolls out under version k-1. Pipelined policies overlap: the job that
trains step k's samples runs while step k+1 rolls out and publishes version
k+1, which step k+2 rolls out under; that is the one-step off-policy
contract, and steps 1 and 2 roll out the initial weights. The colocated
baseline instead serializes rollout, a context switch, and training on the
same workers each step, publishing version k for step k+1. Training starts
once a batch-size worth of the step's samples has been rewarded;
oversampling lowers that threshold and late samples count toward the next
step's batch, as does an inter-step migrant, under the next step's version.
Each step is one `_Step` record, planned when a worker first reaches it.
HistoPipe plans each step from 2 on (`plan_step`) but one with fewer prompts
than `n_groups`: that rolls out round robin, as step 1 does ("streaming").

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
from collections.abc import Callable, Mapping
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
_TICKS_PER_S = 10**9


def _ticks(seconds: float) -> int:
    return round(seconds * _TICKS_PER_S)


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
    """All durations in abstract seconds; the one source of time truth. The
    simulator rounds each to whole ticks (`_Ticks`)."""

    per_iter_base: float = 0.02      # engine iteration floor
    per_iter_batch: float = 0.0003   # added per in-flight response on the worker
    prefill_per_token: float = 0.00005  # KV recompute charge on migration
    reward_time: float = 0.01        # per sample on a reward worker
    train_base: float = 0.5
    train_per_sample: float = 0.005
    context_switch_frac: float = 0.05  # colocated only, fraction of train time

    def __post_init__(self):
        for name, value in vars(self).items():
            if not (value >= 0 and math.isfinite(value * _TICKS_PER_S)):
                raise ValueError(f"{name} must be >= 0 and finite in ticks (1 ns), got {value}")
        # An iteration of zero ticks would finish every rollout at the
        # instant it starts, and the event loop would never advance.
        if not _ticks(self.per_iter_base) + _ticks(self.per_iter_batch) > 0:
            raise ValueError("per_iter_base + per_iter_batch must be at least one tick (1 ns)")

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
        if not (self.weight_propagation_delay >= 0
                and math.isfinite(self.weight_propagation_delay * _TICKS_PER_S)):
            raise ValueError("weight_propagation_delay must be >= 0 and finite in ticks (1 ns)")


class _Ticks(NamedTuple):
    """The cost model and the weight delay in whole ticks, each rounded once;
    colocated's context switch, a fraction of the train job, term by term."""

    iter_base: int
    iter_batch: int
    prefill_per_token: int
    reward: int
    train_base: int
    train_per_sample: int
    switch_base: int
    switch_per_sample: int
    weight_delay: int

    @classmethod
    def of(cls, cost: CostConfig, cluster: ClusterSpec) -> _Ticks:
        frac = cost.context_switch_frac
        return cls(*map(_ticks, (
            cost.per_iter_base, cost.per_iter_batch, cost.prefill_per_token, cost.reward_time,
            cost.train_base, cost.train_per_sample, frac * cost.train_base,
            frac * cost.train_per_sample, cluster.weight_propagation_delay)))

    def t_iter(self, batch: int) -> int:
        return self.iter_base + self.iter_batch * batch

    def t_train(self, samples: int) -> int:
        return self.train_base + self.train_per_sample * samples


@dataclass(slots=True)
class _Task:
    sid: str
    prompt: str
    epoch: int
    tokens_len: int
    total_iters: int
    profile: array | None  # cumulative tokens after each iteration; None = 1/iter
    group: int | None
    v_start: int = 0          # its worker's `v` at its progress 0
    v_end: int = 0            # its worker's `v` when it leaves the batch
    done: int = 0             # iterations done before it joins its worker
    left_at: int = 0          # the tick it left its last worker
    worker: int | None = None
    migrated: bool = False
    continuation_version: int | None = None

    def generated_len(self, progress: int) -> int:
        """Its tokens after `progress` whole iterations."""
        return self.profile[progress - 1] if progress and self.profile is not None else progress


@dataclass(slots=True)
class _Worker:
    wid: int
    free_at: int = 0
    step: int = 0
    inflight: dict = field(default_factory=dict)  # sid -> task, the batch
    joining: list = field(default_factory=list)   # (tick its prefill ends, task)
    v: int = 0                 # iterations done since its step began, at `boundary`
    boundary: int = 0          # the tick of its last batch change
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

    A step with fewer prompts than `n_groups` has no plan: `build_groups`
    raises ValueError, and a HistoPipe run rolls the step out round robin.
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
        self.ticks = _Ticks.of(cost, cluster)
        self.steps = len(trace.epochs)
        if not self.steps:
            raise ValueError("trace has no responses")
        if trace.epochs != list(range(1, self.steps + 1)):
            raise ValueError("trace epochs must be contiguous starting at 1")
        if policy.is_histopipe and self.steps < 2:
            raise ValueError("histopipe policies need a trace with at least 2 epochs")

        self.workers = [_Worker(w) for w in range(cluster.rollout_workers)]
        self.events: list[dict] = []  # `events.EVENTS` records, keys sorted at every level
        self._heap: list[tuple[int, int, Callable, tuple]] = []  # (tick, seq, handler, args)
        # One counter breaks the heap's tick ties and gives each record its `seq`.
        self._seq = 0
        self.now = 0  # in ticks

        # (step, prompt) -> its responses' HistoSpec replays, filled by run()
        # before the event loop; empty without speculation.
        self.replayed: dict[tuple[int, str], list[Replayed]] = {}

        self.step = {k: _Step(k) for k in trace.epochs}
        self.reward_free = [(0, i) for i in range(cluster.reward_workers)]
        self.train_free = 0
        self.last_train_duration: float | None = None  # seconds, of the last train job to end
        self.weight_avail: dict[int, int] = {}
        self.weight_waiters: dict[int, list[tuple[int, int]]] = {}  # version -> (wid, step)

    # -- event plumbing -----------------------------------------------------

    def _push(self, time: int, handler: Callable, *args) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (time, self._seq, handler, args))

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
        # A step with fewer prompts than groups is rolled out round robin:
        # scheduler.build_groups refuses it, counting the same prompts, so a
        # change to one threshold must change the other.
        if (self.policy.is_histopipe and step >= 2
                and len(self.trace.epoch_responses(step)) >= self.cluster.n_groups):
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
        rec.group_completed = dict.fromkeys(plan.group_batches, 0)

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
                    iters = resp.generated_len if replay is None else replay.iterations
                    rec.shares[wid].append(_Task(
                        sid=f"{pid}/e{step}/{member}", prompt=pid, epoch=step,
                        tokens_len=resp.generated_len,
                        total_iters=iters, profile=None if replay is None else replay.profile,
                        group=group, v_end=iters, worker=wid,
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
            self._bind_carry(rec, task)

        self.events.append({
            "allocation": plan.allocation.as_dict() if plan.allocation else None,
            "kind": "step_boundary", "policy": plan.policy,
            "replay": dict(sorted(vars(stats).items())),
            "seq": self._next_seq(), "step": step, "time": self.now / _TICKS_PER_S,
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
            rec.group_total[group] += 1
        running = self.workers[target]
        if running.step == rec.number:
            self._join(running, task)
            self._share(running, True)
            self._reschedule(running)

    # -- the worker clock ------------------------------------------------------

    def _next_boundary(self, worker: _Worker) -> tuple[int, int]:
        """The first boundary of `worker`'s batch at or after now, and its `v` there."""
        t = self.ticks.t_iter(len(worker.inflight))
        n = -((worker.boundary - self.now) // t)
        return worker.boundary + n * t, worker.v + n

    def _join(self, worker: _Worker, task: _Task) -> None:
        """Queue `task` to join `worker`'s batch once its prefill ends."""
        prefill = self.ticks.prefill_per_token * task.generated_len(task.done)
        worker.joining.append((max(task.left_at, self.now) + prefill, task))

    def _reschedule(self, worker: _Worker) -> None:
        """Queue `worker`'s next batch change: the first boundary at which a
        rollout ends or a joining one is ready, or, with an empty batch, the
        tick the first joining one is ready."""
        worker.sched_version += 1
        when = min((ready for ready, _ in worker.joining), default=None)
        if worker.inflight:
            t = self.ticks.t_iter(len(worker.inflight))
            n = min(task.v_end for task in worker.inflight.values()) - worker.v
            if when is not None:
                n = min(n, -((worker.boundary - when) // t))
            when = worker.boundary + n * t
        if when is not None:
            self._push(when, self._on_boundary, worker.wid, worker.sched_version)

    # -- worker lifecycle -------------------------------------------------------

    def _on_start(self, wid: int, step: int) -> None:
        """Start worker `wid` on `step` once it is done with the step before
        and the step's weights are out: now, or by a start queued for then."""
        worker = self.workers[wid]
        if step > self.steps or worker.step != step - 1 or worker.inflight or worker.joining:
            return
        rec = self._ensure_plan(step)
        # Colocated step 1 and pipelined steps 1-2 roll out the initial weights.
        first_trained = 2 if self.policy.name == "colocated" else 3
        avail = 0 if step < first_trained else self.weight_avail.get(step - 1)
        if avail is None:
            # Version not published yet; its train_done will wake us.
            self.weight_waiters.setdefault(step - 1, []).append((wid, step))
            return
        start = max(worker.free_at, avail, self.now)
        if start > self.now:
            self._push(start, self._on_start, wid, step)
            return
        worker.step, worker.v, worker.boundary = step, 0, self.now
        worker.inflight = {t.sid: t for t in rec.shares[wid]}
        for task in rec.carry_in:
            if task.worker == wid:
                self._join(worker, task)
        if worker.inflight or worker.joining:
            self._share(worker, True)
            self._reschedule(worker)
        else:
            self._finish_step_share(worker)

    def _share(self, worker: _Worker, is_open: bool) -> None:
        """Open or close `worker`'s share, logging the change."""
        if worker.share_open != is_open:
            worker.share_open = is_open
            self.events.append({"kind": "share_start" if is_open else "share_end",
                                "seq": self._next_seq(), "step": worker.step,
                                "time": self.now / _TICKS_PER_S, "worker": worker.wid})

    def _finish_step_share(self, worker: _Worker) -> None:
        self._share(worker, False)
        worker.free_at = max(worker.free_at, self.now)
        if worker.step + 1 <= self.steps:
            self._push(self.now, self._on_start, worker.wid, worker.step + 1)
        if self.policy.name == "colocated":
            self._push(self.now, self._on_train_check, worker.step)

    # -- event handlers ----------------------------------------------------------

    def _on_boundary(self, wid: int, sched_version: int) -> None:
        worker = self.workers[wid]
        if sched_version != worker.sched_version:
            return
        if worker.inflight:
            worker.v += (self.now - worker.boundary) // self.ticks.t_iter(len(worker.inflight))
        worker.boundary = self.now
        rec, v, finished = self.step[worker.step], worker.v, False
        for sid in sorted(sid for sid, task in worker.inflight.items() if task.v_end == v):
            task = worker.inflight.pop(sid)
            if task.v_end - task.v_start < task.total_iters:
                continue  # it left, migrating
            finished = True
            if task.group is not None:
                rec.group_completed[task.group] += 1
            self.events.append({
                "continuation_version": task.continuation_version,
                "iterations": task.total_iters, "kind": "rollout_finish",
                "migrated": task.migrated, "sample": sid, "scheduled_step": task.epoch,
                "seq": self._next_seq(), "step": worker.step, "time": self.now / _TICKS_PER_S,
                "tokens": task.tokens_len, "weight_version": task.epoch - 1,
                "worker": wid,
            })
            self._queue_reward(sid, worker.step)
        if worker.joining:
            for ready, task in worker.joining:
                if ready <= self.now:
                    task.v_start = v - task.done
                    task.v_end = task.v_start + task.total_iters
                    worker.inflight[task.sid] = task
            worker.joining = [j for j in worker.joining if j[0] > self.now]
        if finished and rec.plan.groups is not None and self.policy.migration:
            self._check_migrations(rec)
        if worker.inflight or worker.joining:
            self._reschedule(worker)
        else:
            self._finish_step_share(worker)

    def _queue_reward(self, sid: str, attr_step: int) -> None:
        free_t, ridx = heapq.heappop(self.reward_free)
        start = max(self.now, free_t)
        done = start + self.ticks.reward
        heapq.heappush(self.reward_free, (done, ridx))
        self._push(done, self._on_reward_done, sid, attr_step, start)

    def _check_migrations(self, rec: _Step) -> None:
        """Migrate the stragglers of every group still rolling out this step.

        Only a rollout in its group's `stragglers`, longer than beta times
        the group's longest history length, can pass `migration_decision`'s
        length test: no rollout generates more than its length, and a
        migrant never moves again. The lists are walked in group order, each
        by (worker, sid); a group is tested for its last ALPHA_PCT%
        (`in_straggler_tail`) when its scan begins, since a migrant received
        earlier in the check can take it out. A rollout that has migrated or
        is not in its worker's batch is skipped but stays listed: its worker
        may not have started the step yet. The groups' loads (mean batch over
        each group's workers still in the step) are taken at the first live
        candidate, before any migration in the check.
        """
        beta, groups = rec.plan.beta, rec.plan.groups
        completed, total = rec.group_completed, rec.group_total
        n_groups = self.cluster.n_groups
        loads = None
        for g, stragglers in rec.stragglers.items():
            if not in_straggler_tail(completed[g], total[g]):
                continue
            for task in stragglers:
                if task.migrated:
                    continue
                worker = self.workers[task.worker]
                if task.sid not in worker.inflight:
                    continue
                v_leave = self._next_boundary(worker)[1]
                # One that has run all its iterations by then is finished,
                # though its worker's boundary may not be handled yet (a tie
                # with this one's): it never migrates.
                if v_leave == task.v_end:
                    continue
                if loads is None:
                    loads = self._group_loads(rec)
                decision = migration_decision(
                    groups[g], task.generated_len(v_leave - task.v_start), completed[g],
                    total[g], beta, n_groups, loads,
                )
                if decision.migrates:
                    self._migrate(rec, worker, task, decision.target_group)

    def _group_loads(self, rec: _Step) -> dict[int, float]:
        loads = {g: [len(self.workers[w].inflight) for w in wids
                     if self.workers[w].step == rec.number and self.workers[w].inflight]
                 for g, wids in rec.group_workers.items()}
        return {g: sum(batches) / len(batches) for g, batches in loads.items() if batches}

    def _detach(self, source: _Worker, task: _Task) -> int:
        """Make `task` leave `source`'s batch at its next boundary, keeping
        the whole iterations done by then in `done`; returns its tokens then."""
        task.left_at, task.v_end = self._next_boundary(source)
        task.done = task.v_end - task.v_start
        return task.generated_len(task.done)

    def _migrate(self, rec: _Step, source: _Worker, task: _Task,
                 target_group: int | None) -> None:
        """Move `task` off `source` at its next boundary: to the least busy
        worker of `target_group` still rolling out the step, or with no
        target group to the next step, as a carry-in. An inter-step migrant
        stays where it is when there is no next step, or when the next step
        is planned and none of its workers could resume it."""
        if target_group is None:
            nxt = self.step.get(rec.number + 1)
            if nxt is None or nxt.plan is not None and not self._carry_targets(nxt, task)[1]:
                return
        else:
            # `_group_loads` offered the group, so one of its workers is live.
            workers = [self.workers[wid] for wid in rec.group_workers[target_group]]
            target = min((w for w in workers if w.step == rec.number and w.inflight),
                         key=lambda w: (len(w.inflight) + len(w.joining), w.wid))
        generated = self._detach(source, task)
        task.migrated = True
        rec.group_total[task.group] -= 1
        kind = "inter_step" if target_group is None else "intra_step"
        record = {"from_group": task.group, "from_worker": source.wid, "generated": generated,
                  "kind": "migration", "migration_kind": kind, "sample": task.sid,
                  "seq": self._next_seq(), "time": self.now / _TICKS_PER_S}
        if target_group is None:
            task.continuation_version = rec.number
            task.worker = None
            rec.expected -= 1
            nxt.expected += 1
            record["to_step"] = nxt.number
            self.events.append(record)
            nxt.carry_in.append(task)
            if nxt.plan is not None:
                self._bind_carry(nxt, task)
            self._push(self.now, self._on_train_check, rec.number)
        else:
            self._join(target, task)
            task.group, task.worker = target_group, target.wid
            rec.group_total[target_group] += 1
            record["to_group"], record["to_worker"] = target_group, target.wid
            self.events.append(record)
            self._reschedule(target)
        self._reschedule(source)

    def _on_reward_done(self, sid: str, attr_step: int, start: int) -> None:
        # A sample rewarded after its step's train started counts toward the
        # next step still accepting samples, if there is one.
        step = attr_step
        while self.step[step].train_started and step < self.steps:
            step += 1
        rec = self.step[step]
        counted = not rec.train_started
        self.events.append({
            "buffered_for": step if counted and step != attr_step else None,
            "kind": "reward_done", "sample": sid, "seq": self._next_seq(),
            "start": start / _TICKS_PER_S, "step": attr_step, "time": self.now / _TICKS_PER_S,
        })
        if counted:
            rec.rewarded += 1
            self._push(self.now, self._on_train_check, step)

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
        colocated = self.policy.name == "colocated"
        # Colocated alternates strictly: every worker must have drained this
        # step, and so closed its share, first. Its round-robin steps never
        # migrate, so no carry-in can still be unbound.
        if colocated and any(w.step < step or w.inflight for w in self.workers):
            return
        rec.train_started = True
        duration = self.ticks.t_train(rec.rewarded)
        if colocated:
            # Every worker switches to training, trains, and switches back.
            switch = self.ticks.switch_base + self.ticks.switch_per_sample * rec.rewarded
            span = [self.now, self.now + 2 * switch + duration]
            for worker in self.workers:
                worker.free_at = span[1]
            start = self.now + switch
        else:
            start, span = max(self.now, self.train_free), None
        self.train_free = start + duration
        self._push(self.train_free, self._on_train_done, step, start, span)

    def _on_train_done(self, step: int, start: int, switch: list[int] | None) -> None:
        duration = (self.now - start) / _TICKS_PER_S
        self.last_train_duration = duration
        rec = self.step[step]
        rec.trained = True
        # Weights trained on step k are current for step k+1 under colocated
        # alternation and for step k+2 in the overlapped pipeline; version v
        # is the one step v+1 rolls out under.
        if self.policy.name == "colocated":
            version, avail = step, self.now
        else:
            version, avail = step + 1, self.now + self.ticks.weight_delay
        self.weight_avail[version] = avail
        self.events.append({
            "batch": rec.rewarded, "duration": duration, "kind": "train_done",
            "publishes_version": version, "seq": self._next_seq(),
            "start": start / _TICKS_PER_S, "step": step,
            "switch": None if switch is None else [tick / _TICKS_PER_S for tick in switch],
            "time": self.now / _TICKS_PER_S,
        })
        self.events.append({
            "available_at": avail / _TICKS_PER_S, "kind": "weight_update",
            "seq": self._next_seq(), "time": self.now / _TICKS_PER_S, "trained_on_step": step,
            "version": version,
        })
        for wid, wait_step in self.weight_waiters.pop(version, []):
            self._push(avail, self._on_start, wid, wait_step)
        self._push(self.now, self._on_train_check, step + 1)
        if self.policy.name == "colocated":
            for worker in self.workers:
                self._push(worker.free_at, self._on_start, worker.wid, step + 1)

    # -- main loop ----------------------------------------------------------------

    def run(self) -> SimResult:
        if self.policy.speculation:
            self.replayed = histospec(self.trace)
        for worker in self.workers:
            self._push(0, self._on_start, worker.wid, 1)
        while self._heap:
            self.now, _seq, handler, args = heapq.heappop(self._heap)
            handler(*args)
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
            raise SimulationStalledError(f"{self.policy.name} run stalled at "
                                         f"t={self.now / _TICKS_PER_S:.6f}: " + "; ".join(problems))

    def _finalize(self) -> SimResult:
        self._check_drained()
        self.events.append({"kind": "run_end", "rollout_workers": len(self.workers),
                            "seq": self._next_seq(), "time": self.now / _TICKS_PER_S})
        return derive(self.events)


def run(trace: Trace | list[Response], cluster: ClusterSpec, policy: Policy,
        cost: CostConfig | None = None) -> SimResult:
    """Simulate the full pipeline over the trace; deterministic per inputs."""
    if not isinstance(trace, Trace):
        trace = Trace(trace)
    sim = _Simulation(trace, cluster, policy, cost or CostConfig())
    return sim.run()
