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

Weight versions are named by the step they become current for. Pipelined
policies overlap: the job that trains step k's samples runs while step k+1
rolls out and publishes the version used by step k+2, which is the one-step
off-policy contract (every response rolls out under version step-1). The
colocated baseline instead serializes rollout, a context switch, and training
on the same workers each step, publishing version k for step k+1. Training
starts once a batch-size worth of the step's samples has been rewarded;
oversampling lowers that threshold and late samples count toward the next
step's batch.

Migrated rollouts keep their generated tokens and pay a prefill recompute
charge when they join a worker: a timed phase at the end of which their
`v_start` is fixed. Inter-step ones finish under the next step's version and
count toward the next step's batch.

HistoSpec is one pass computed before the event loop (`histospec`): for every
prompt of every step from 2 on, it builds the prompt's suffix index over its
latest earlier epoch and replays the step's responses against it. It depends
only on the trace and the `SpecConfig`, so it is split over the CPUs this
process may use, one forked process per share beyond the one the simulating
process computes itself. Each response's replay is one
`spec_engine.Replayed`: its iteration count, its cumulative profile as C ints
and its counters. The batch gate only chooses: a share whose gate is open
takes its responses' replays, and every other response decodes one token per
iteration without any call into the engine.

The event log is the run's one record: `derive` computes the timeline,
metrics, accounting and per-step speculation rows from it alone, in memory or
from the `.events.jsonl` beside a run JSON. Each event has `time`, `seq` (its
place in the log) and `kind`, and each kind carries:

- `step_boundary`: `step`, the planning `policy`, `workers` (worker id ->
  group), the two-tier `allocation` or null, and `replay`, the `SpecStats`
  counters of the step's responses, replayed or not.
- `share_start`, `share_end`: `worker`, `step`. A share runs from a worker's
  first rollout of a step to its last; a continuation handed to a drained
  worker opens another.
- `rollout_finish`: `sample`, `worker`, `step` (finished in),
  `scheduled_step`, `weight_version`, `continuation_version`, `tokens`,
  `iterations`, `migrated`.
- `migration`: `sample`, `migration_kind`, `from_group`, `from_worker`,
  `generated`, and `to_group`, `to_worker` (intra-step) or `to_step`.
- `reward_done`: `sample`, `step`, `buffered_for` (a later step it counts
  toward, or null), `start` (when a reward worker took it).
- `train_done`: `step`, `batch`, `start`, `duration`, `publishes_version`,
  `switch`: colocated's [start of the switch to training, end of the switch
  back], else null.
- `weight_update`: `version`, `trained_on_step`, `available_at`.
- `run_end`: `rollout_workers`. Its time is the makespan, which can follow
  the last other event (colocated's trailing switch).
"""

from __future__ import annotations

import contextlib
import functools
import heapq
import json
import math
import os
import pickle
import signal
import statistics
import warnings
from array import array
from collections import Counter, defaultdict
from collections.abc import Iterable, Mapping
from dataclasses import asdict, dataclass, field

from . import history
from .history import Response
from .scheduler import (
    BETA_FLOOR,
    AllocationPlan,
    MigrationPolicy,
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
from .spec_engine import Replayed, SpecConfig, SpecStats, gate_check, replay_response
from .tracegen import Trace

POLICIES = ("colocated", "streaming", "histopipe_naive", "histopipe_two_tier")
EVENTS_SCHEMA_VERSION = 2
RUN_SCHEMA_VERSION = 3
SPEC_STATS_HEADER = ["step", "speculation_rate", "acceptance_rate", "verify_passes",
                     "decode_passes"]

_EPS = 1e-9

# The payload fields of each event kind, as the module docstring lists them.
# A migration also carries `to_group` and `to_worker` (intra-step) or
# `to_step` (inter-step).
EVENT_FIELDS = {
    "step_boundary": ("step", "policy", "workers", "allocation", "replay"),
    "share_start": ("worker", "step"),
    "share_end": ("worker", "step"),
    "rollout_finish": ("sample", "worker", "step", "scheduled_step", "weight_version",
                       "continuation_version", "tokens", "iterations", "migrated"),
    "migration": ("sample", "migration_kind", "from_group", "from_worker", "generated"),
    "reward_done": ("sample", "step", "buffered_for", "start"),
    "train_done": ("step", "batch", "start", "duration", "publishes_version", "switch"),
    "weight_update": ("version", "trained_on_step", "available_at"),
    "run_end": ("rollout_workers",),
}


class InfeasiblePlanError(RuntimeError):
    """Two-tier planning could not fit the worker budget."""


class SimulationStalledError(RuntimeError):
    """The event queue drained before the run finished its work: a scheduled
    sample did not finish exactly once, a step never trained, or a worker
    still waits for weights."""


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


@dataclass
class Policy:
    name: str
    speculation: bool = False
    migration: bool = True
    oversample_pct: float = 0.0
    plan_precision: float = 0.05

    def __post_init__(self):
        if self.name not in POLICIES:
            raise ValueError(f"unknown policy {self.name!r}; expected one of {POLICIES}")
        if not (0.0 <= self.oversample_pct < 100.0):
            raise ValueError("oversample_pct must be in [0, 100)")
        if not self.plan_precision > 0:
            raise ValueError(f"plan_precision must be > 0, got {self.plan_precision}")

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
    min_wks: int = 1
    max_wks: int | None = None

    def __post_init__(self):
        if self.rollout_workers < 1 or self.reward_workers < 1:
            raise ValueError("need at least one rollout and one reward worker")
        if self.rollout_workers < self.n_groups * self.min_wks:
            raise ValueError("rollout_workers must cover n_groups * min_wks")
        if not (math.isfinite(self.weight_propagation_delay)
                and self.weight_propagation_delay >= 0):
            raise ValueError("weight_propagation_delay must be finite and >= 0, "
                             f"got {self.weight_propagation_delay}")


@dataclass
class SimEvent:
    time: float
    seq: int
    kind: str
    payload: dict

    def as_dict(self) -> dict:
        return {"time": self.time, "seq": self.seq, "kind": self.kind, **self.payload}

    @classmethod
    def from_dict(cls, record: dict) -> SimEvent:
        """An event read back from its `as_dict` form (one `.events.jsonl`
        line). A record of an unknown kind, or one that lacks a field of its
        kind (`EVENT_FIELDS`), raises ValueError."""
        event = cls(record["time"], record["seq"], record["kind"], record)
        if event.kind not in EVENT_FIELDS:
            raise ValueError(f"unknown event kind {event.kind!r}")
        missing = [f for f in EVENT_FIELDS[event.kind] if f not in record]
        if missing:
            raise ValueError(f"a {event.kind} event needs {', '.join(missing)}")
        return event


@dataclass
class MetricsReport:
    samples_per_second: float
    makespan: float
    samples: int            # rollouts completed
    trained_samples: int    # of those, the ones a train job used
    steps: int
    bubble_fraction: float
    bubble_per_worker: list[float]
    stage_shares: dict[str, float]      # of rollout-worker time; sums to 1
    stage_durations: dict[str, float]   # wall time with >=1 task of the stage live
    migration_pct: float
    speculation_rate: float
    acceptance_rate: float

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass
class RunSummary:
    """What a run reports, all of it computed from the event log by `derive`."""

    metrics: MetricsReport
    timeline: list[tuple[int, float, float, str]]  # worker, start, end, activity
    accounting: dict
    spec_stats: list[list]  # SPEC_STATS_HEADER columns, the rates as floats


@dataclass
class SimResult(RunSummary):
    events: list[SimEvent] = field(default_factory=list)

    def events_jsonl(self) -> str:
        # One encoder for every event: json.dumps with an option builds a new
        # one per call, which was a third of the time spent here.
        encode = json.JSONEncoder(sort_keys=True).encode
        return "".join(encode(e.as_dict()) + "\n" for e in self.events)


@dataclass
class _Task:
    sid: str
    prompt: str
    epoch: int
    member: int
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


@dataclass
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
class _StepPlan:
    step: int
    groups: list[RankingGroup] | None            # None for non-grouped steps
    worker_groups: dict[int, int]                # worker -> group index
    shares: dict[int, list[_Task]]               # worker -> tasks
    group_total: dict[int, int]
    group_completed: dict[int, int]
    policy_kind: str
    allocation: AllocationPlan | None = None
    group_workers: dict[int, list[int]] = field(init=False)  # group -> workers

    def __post_init__(self):
        # Both ascending: the migration check scans groups in index order.
        by_group = defaultdict(list)
        for wid, g in sorted(self.worker_groups.items()):
            by_group[g].append(wid)
        self.group_workers = dict(sorted(by_group.items()))


class _GroupLoads(Mapping):
    """Each group's mean in-flight batch over the workers still rolling out
    `plan`'s step, taken when first read: `migration_decision` reads it only
    for an intra-step candidate, and most checks make no such decision."""

    def __init__(self, workers: list[_Worker], plan: _StepPlan):
        self._workers, self._plan = workers, plan

    @functools.cached_property
    def _loads(self) -> dict[int, float]:
        plan, workers = self._plan, self._workers
        loads = {}
        for g, wids in plan.group_workers.items():
            batches = [len(workers[w].inflight) for w in wids
                       if workers[w].step == plan.step and workers[w].inflight]
            if batches:
                loads[g] = sum(batches) / len(batches)
        return loads

    def __getitem__(self, group: int) -> float:
        return self._loads[group]

    def __iter__(self):
        return iter(self._loads)

    def __len__(self) -> int:
        return len(self._loads)


# A HistoSpec unit: (step, prompt, the prompt's latest epoch before the step).
_Unit = tuple[int, str, int]


def histospec(trace: Trace, config: SpecConfig) -> dict[tuple[int, str], list[Replayed]]:
    """Every response of every step from 2 on whose prompt appeared in an
    earlier epoch, replayed against the prompt's index over the latest such
    epoch: (step, prompt) -> one `Replayed` per group member, in order.

    The units are split over the usable CPUs, balanced by token count. This
    process computes one share and forks one child per other share; a child
    pickles its results, or the exception that stopped it, into a pipe and
    ends with `os._exit`. Every child is reaped before this returns or
    raises, and a child's exception is raised here. Everything runs here
    when there is one CPU or one unit, or when no process can be forked.
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
            child = _fork_share(trace, config, share)
            if child is None:
                own += share
            else:
                children.append(child[0])
                pipes.append(child[1])
        results = _replay_units(trace, config, own)
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


def _replay_units(trace: Trace, config: SpecConfig,
                  units: list[_Unit]) -> dict[tuple[int, str], list[Replayed]]:
    # Both calls go through their modules' globals, so a wrapper set on
    # `history.build_tree` or `sim.replay_response` (the traced benchmark
    # run) sees the calls made in this process. Each index is dropped before
    # the next is built, so one is alive at a time.
    results = {}
    for step, pid, epoch in units:
        tree = history.build_tree(pid, epoch, trace.group(epoch, pid))
        results[step, pid] = [replay_response(resp.tokens, tree, config)
                              for resp in trace.group(step, pid)]
        del tree
    return results


def _fork_share(trace: Trace, config: SpecConfig, units: list[_Unit]) -> tuple[int, int] | None:
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
                outcome = _replay_units(trace, config, units)
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


class _Simulation:
    def __init__(self, trace: Trace, cluster: ClusterSpec, policy: Policy,
                 cost: CostConfig, spec_config: SpecConfig):
        self.trace = trace
        self.cluster = cluster
        self.policy = policy
        self.cost = cost
        self.spec_config = spec_config
        self.steps = len(trace.epochs)
        if not self.steps:
            raise ValueError("trace has no responses")
        if trace.epochs != list(range(1, self.steps + 1)):
            raise ValueError("trace epochs must be contiguous starting at 1")
        if policy.is_histopipe and self.steps < 2:
            raise ValueError("histopipe policies need a trace with at least 2 epochs")

        self.workers = [_Worker(w) for w in range(cluster.rollout_workers)]
        self.events: list[SimEvent] = []
        self._heap: list[tuple[float, int, str, tuple]] = []
        self._seq = 0
        self.now = 0.0

        # (step, prompt) -> its responses' HistoSpec replays, filled by run()
        # before the event loop; empty without speculation.
        self.replayed: dict[tuple[int, str], list[Replayed]] = {}
        self.stats = SpecStats()

        self.plans: dict[int, _StepPlan] = {}
        self.carry_in: dict[int, list[_Task]] = {}   # step -> inter-migrated tasks
        self.reward_free = [(0.0, i) for i in range(cluster.reward_workers)]
        heapq.heapify(self.reward_free)
        self.train_free = 0.0
        self.train_started: set[int] = set()
        self.train_done_time: dict[int, float] = {}
        self.last_train_duration = 0.0
        self.weight_avail: dict[int, float] = {}
        self.weight_waiters: dict[int, list[tuple[int, int]]] = {}  # version -> (wid, step)
        self.rewarded: dict[int, int] = {}
        self.expected: dict[int, int] = {}
        self._beta_cache: dict[int, float] = {}

        self.scheduled_ids: dict[str, int] = {}

    # -- event plumbing -----------------------------------------------------

    def _push(self, time: float, kind: str, data: tuple) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (time, self._seq, kind, data))

    def _emit(self, kind: str, payload: dict) -> None:
        self._seq += 1
        self.events.append(SimEvent(self.now, self._seq, kind, payload))

    # -- planning -------------------------------------------------------------

    def _planning_stats(self, step: int) -> dict[str, PromptStat]:
        """Epoch `step`'s prompts with their epoch step-1 statistics. A prompt
        absent from epoch step-1 gets a typical prompt's: the median of the
        known medians and of the known maxima."""
        known = prompt_stats(self.trace.epoch_responses(step - 1))
        cold = PromptStat(float(statistics.median(s.median_len for s in known.values())),
                          float(statistics.median(s.max_len for s in known.values())))
        return {pid: known.get(pid, cold) for pid in self.trace.epoch_responses(step)}

    def _make_tasks(self, step: int, shares_raw: dict[int, list]) -> dict[int, list[_Task]]:
        """Wrap every assigned response as a schedulable task. A share whose
        batch gate is open takes its responses' HistoSpec replays; any other
        response, or one whose prompt has no earlier epoch, decodes one token
        per iteration. The counters are added in plan order."""
        flags = {wid: self.policy.speculation and step >= 2
                 and gate_check(self.spec_config, len(members), self.stats.acceptance_rate)
                 for wid, members in shares_raw.items()}
        shares: dict[int, list[_Task]] = {}
        for wid in sorted(shares_raw):
            share = []
            for member, resp, group_idx in shares_raw[wid]:
                sid = f"{resp.prompt_id}/e{resp.epoch}/{member}"
                replays = self.replayed.get((step, resp.prompt_id)) if flags[wid] else None
                replay = None if replays is None else replays[member]
                self.stats.count(resp.generated_len, replay)
                share.append(_Task(
                    sid=sid, prompt=resp.prompt_id, epoch=resp.epoch, member=member,
                    tokens_len=resp.generated_len,
                    total_iters=resp.generated_len if replay is None else replay.iterations,
                    profile=None if replay is None else replay.profile,
                    group=group_idx, weight_version=step - 1, worker=wid,
                ))
            shares[wid] = share
        return shares

    def _ensure_plan(self, step: int) -> _StepPlan:
        if step in self.plans:
            return self.plans[step]
        if step > 1:
            self._ensure_plan(step - 1)

        before = vars(self.stats).copy()
        if self.policy.is_histopipe and step >= 2:
            plan = self._plan_histopipe(step)
        else:
            plan = self._plan_round_robin(step)
        self.plans[step] = plan

        tasks = [task for share in plan.shares.values() for task in share]
        self.scheduled_ids.update((task.sid, step) for task in tasks)
        self.expected[step] = self.expected.get(step, 0) + len(tasks)
        self.rewarded.setdefault(step, 0)
        for task in self.carry_in.get(step, []):
            if task.worker is None:
                self._bind_carry(plan, task)

        self._emit("step_boundary", {
            "step": step,
            "policy": plan.policy_kind,
            "workers": {str(w): g for w, g in sorted(plan.worker_groups.items())},
            "allocation": plan.allocation.as_dict() if plan.allocation else None,
            "replay": {k: v - before[k] for k, v in vars(self.stats).items()},
        })
        return plan

    def _plan_round_robin(self, step: int) -> _StepPlan:
        epoch_responses = self.trace.epoch_responses(step)
        shares_raw: dict[int, list] = {w.wid: [] for w in self.workers}
        i = 0
        for pid in sorted(epoch_responses):
            for member, resp in enumerate(epoch_responses[pid]):
                shares_raw[i % len(self.workers)].append((member, resp, None))
                i += 1
        shares = self._make_tasks(step, shares_raw)
        return _StepPlan(
            step=step, groups=None, worker_groups={w.wid: 0 for w in self.workers},
            shares=shares, group_total={}, group_completed={},
            policy_kind="colocated" if self.policy.name == "colocated" else "streaming",
        )

    def _plan_histopipe(self, step: int) -> _StepPlan:
        n_groups = self.cluster.n_groups
        groups = build_groups(self._planning_stats(step), n_groups)
        order = assignment_order(step, n_groups)
        wks = self.cluster.rollout_workers

        group_batches = {
            g.index: sum(len(self.trace.group(step, pid)) for pid in g.prompt_ids)
            for g in groups
        }
        allocation = None
        if self.policy.name == "histopipe_two_tier":
            # tau(g, k) deals group g's previous-epoch member lengths (members
            # new in this epoch have none) over k workers the way this epoch's
            # responses will be dealt: the slowest worker's decayed-batch
            # makespan, the simulator's analog of profiling the engine. The
            # search asks each cell at every gradient it tries, so it is cached.
            prev_epoch = self.trace.epoch_responses(step - 1)
            member_lens = [
                [r.generated_len for pid in g.prompt_ids if pid in prev_epoch
                 for r in prev_epoch[pid]]
                for g in groups
            ]
            speedup = 1.0 + self._accepted_per_pass()

            @functools.cache
            def tau(g: int, k: int) -> float:
                lens = member_lens[g]
                return max(_share_makespan(lens[i::k], self.cost) for i in range(k)) / speedup

            # Until a train stage has actually run, estimate its duration from
            # the cost model; the t0 >= t_train floor is what keeps the
            # shortest group from hogging near-max workers.
            t_train = self.last_train_duration
            if not self.train_done_time:
                t_train = self.cost.t_train(sum(group_batches.values()))
            allocation = plan_allocation(
                n_groups, wks, t_train,
                tau, min_wks=self.cluster.min_wks, max_wks=self.cluster.max_wks,
                precision=self.policy.plan_precision,
            )
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

        # Worker slots take the groups in assignment order, counts[g] each.
        plan = _StepPlan(
            step=step, groups=groups,
            worker_groups=dict(enumerate(g for g in order for _ in range(counts[g]))),
            shares={}, group_total=dict(group_batches),
            group_completed={g.index: 0 for g in groups},
            policy_kind=self.policy.name, allocation=allocation,
        )
        shares_raw: dict[int, list] = {w.wid: [] for w in self.workers}
        for grp in groups:
            wids = plan.group_workers[grp.index]
            i = 0
            for pid in grp.prompt_ids:
                for member, resp in enumerate(self.trace.group(step, pid)):
                    shares_raw[wids[i % len(wids)]].append((member, resp, grp.index))
                    i += 1
        plan.shares = self._make_tasks(step, shares_raw)
        return plan

    def _accepted_per_pass(self) -> float:
        passes = self.stats.verify_passes + self.stats.decode_passes
        if not self.policy.speculation or passes == 0:
            return 0.0
        return max(0.0, self.stats.tokens_total / passes - 1.0)

    def _carry_targets(self, plan: _StepPlan, task: _Task) -> tuple[int | None, list[int]]:
        """The group a continuation of `task` joins in `plan`'s step and the
        workers that can still run it: those serving the prompt's group (any
        worker under round-robin plans) that have not moved past the step.
        With oversampling, training and so the next weights can come before
        a step's last sample, letting workers run ahead of a straggler."""
        group = None
        if plan.groups is not None:
            group = next((g.index for g in plan.groups if task.prompt in g.prompt_ids), None)
        wids = [w for w, g in plan.worker_groups.items()
                if (group is None or g == group) and self.workers[w].step <= plan.step]
        return group, wids

    def _bind_carry(self, plan: _StepPlan, task: _Task) -> None:
        group, wids = self._carry_targets(plan, task)
        target = min(wids, key=lambda w: (len(plan.shares.get(w, [])), w))
        task.worker = target
        task.group = group
        if group is not None:
            plan.group_total[group] = plan.group_total.get(group, 0) + 1
        running = self.workers[target]
        if running.step == plan.step:
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
        plan = self._ensure_plan(step)
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
        worker.inflight = {t.sid: t for t in plan.shares.get(worker.wid, [])}
        for task in self.carry_in.get(step, []):
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
            self._emit("share_start", {"worker": worker.wid, "step": worker.step})

    def _close_share(self, worker: _Worker) -> None:
        if worker.share_open:
            worker.share_open = False
            self._emit("share_end", {"worker": worker.wid, "step": worker.step})

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
        plan = self.plans[worker.step]
        v = worker.v
        finished = sorted(sid for sid, task in worker.inflight.items()
                          if task.v_start + task.total_iters - v <= _EPS)
        for sid in finished:
            task = worker.inflight.pop(sid)
            if task.group is not None:
                plan.group_completed[task.group] = plan.group_completed.get(task.group, 0) + 1
            self._emit("rollout_finish", {
                "sample": sid, "worker": wid, "step": worker.step,
                "scheduled_step": task.epoch,
                "weight_version": task.weight_version,
                "continuation_version": task.continuation_version,
                "tokens": task.tokens_len, "iterations": task.total_iters,
                "migrated": task.migrated,
            })
            self._queue_reward(sid, worker.step)
        if finished and plan.groups is not None and self.policy.migration:
            self._check_migrations(plan)
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

    def _beta_for_step(self, step: int) -> float:
        if step not in self._beta_cache:
            if step < 3:
                self._beta_cache[step] = BETA_FLOOR
            else:
                prev = prompt_stats(self.trace.epoch_responses(step - 2))
                cur = prompt_stats(self.trace.epoch_responses(step - 1))
                rates = [cur[p].median_len / prev[p].median_len
                         for p in sorted(cur) if p in prev and prev[p].median_len > 0]
                self._beta_cache[step] = beta_from_history(rates)
        return self._beta_cache[step]

    def _check_migrations(self, plan: _StepPlan) -> None:
        """Migrate the stragglers of every group still rolling out this step.

        Only a group down to its last alpha% (`in_straggler_tail`) can
        migrate anything, so the per-rollout test runs over those groups'
        live workers alone. Each group is tested once, when its scan begins:
        a group can leave its tail during a check, by receiving a migrant
        before its own scan. Only a worker's own scan can drain it, so the
        workers live at its scan are those live when the check began.
        Progress is read off each worker's clock and nothing is committed
        here; a migration commits the two workers whose batches it changes.

        The groups' loads are read by the first intra-step candidate, if
        any. The groups are scanned in index order, so every such candidate,
        in a short group, comes before the long groups' inter-step
        migrations, and the loads read are those before any migration.
        """
        policy = MigrationPolicy(beta=self._beta_for_step(plan.step))
        completed, total = plan.group_completed, plan.group_total
        n_groups = self.cluster.n_groups
        active_loads = _GroupLoads(self.workers, plan)
        for g, wids in plan.group_workers.items():
            if not in_straggler_tail(completed.get(g, 0), total.get(g, 0), policy):
                continue
            group = plan.groups[g]
            for wid in wids:
                worker = self.workers[wid]
                if worker.step != plan.step or not worker.inflight:
                    continue
                v = worker.v + (self.now - worker.last_advance) / self._t_iter(worker)
                for sid in sorted(worker.inflight):
                    task = worker.inflight.get(sid)
                    # A rollout that has run all its iterations is finished,
                    # though its completion may not be handled yet (a tie
                    # with this worker's): it never migrates.
                    if (task is None or task.migrated
                            or task.v_start + task.total_iters - v <= _EPS):
                        continue
                    decision = migration_decision(
                        group, task.generated_len(v - task.v_start), completed.get(g, 0),
                        total.get(g, 0), policy, n_groups, active_loads,
                    )
                    if not decision.migrates:
                        continue
                    if decision.kind == "intra_step":
                        self._migrate_intra(plan, worker, task, decision.target_group)
                    elif plan.step < self.steps:
                        self._migrate_inter(plan, worker, task)

    def _detach(self, source: _Worker, task: _Task) -> None:
        """Take a decoding `task` off `source`, keeping its progress in `done`."""
        self._advance_worker(source, self.now)
        del source.inflight[task.sid]
        task.done = source.v - task.v_start

    def _migrate_intra(self, plan: _StepPlan, source: _Worker, task: _Task,
                       target_group: int) -> None:
        candidates = [
            self.workers[wid] for wid in plan.group_workers[target_group]
            if self.workers[wid].step == plan.step and self.workers[wid].inflight
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
        plan.group_total[old_group] -= 1
        plan.group_total[target_group] += 1
        self._emit("migration", {
            "sample": task.sid, "migration_kind": "intra_step",
            "from_group": old_group, "to_group": target_group,
            "from_worker": source.wid, "to_worker": target.wid,
            "generated": generated,
        })
        self._reschedule(target)
        if source.inflight:
            self._reschedule(source)
        else:
            self._finish_step_share(source)

    def _migrate_inter(self, plan: _StepPlan, source: _Worker, task: _Task) -> None:
        next_step = plan.step + 1
        if next_step in self.plans and not self._carry_targets(self.plans[next_step], task)[1]:
            return  # no worker could resume it next step: it finishes where it is
        self._detach(source, task)
        generated = task.generated_len(task.done)
        task.migrated = True
        task.continuation_version = next_step - 1
        plan.group_total[task.group] -= 1
        task.worker = None
        self.expected[plan.step] = self.expected.get(plan.step, 0) - 1
        self.expected[next_step] = self.expected.get(next_step, 0) + 1
        self._emit("migration", {
            "sample": task.sid, "migration_kind": "inter_step",
            "from_group": task.group, "to_step": next_step,
            "from_worker": source.wid, "generated": generated,
        })
        self.carry_in.setdefault(next_step, []).append(task)
        if next_step in self.plans:
            self._bind_carry(self.plans[next_step], task)
        self._push(self.now, "train_check", (plan.step,))
        if source.inflight:
            self._reschedule(source)
        else:
            self._finish_step_share(source)

    def _on_reward_done(self, sid: str, attr_step: int, start: float) -> None:
        # A sample rewarded after its step's train started counts toward the
        # next step still accepting samples, if there is one.
        step = attr_step
        while step in self.train_started and step < self.steps:
            step += 1
        counted = step not in self.train_started
        self._emit("reward_done", {
            "sample": sid, "step": attr_step, "start": start,
            "buffered_for": step if counted and step != attr_step else None,
        })
        if counted:
            self.rewarded[step] = self.rewarded.get(step, 0) + 1
            self._push(self.now, "train_check", (step,))

    def _train_threshold(self, step: int) -> int:
        frac = 1.0 - self.policy.oversample_pct / 100.0
        return max(1, math.ceil(self.expected.get(step, 0) * frac))

    def _on_train_check(self, step: int) -> None:
        if step in self.train_started or step > self.steps or step not in self.plans:
            return
        if step > 1 and (step - 1) not in self.train_started:
            return  # train jobs run in step order
        if self.rewarded.get(step, 0) < self._train_threshold(step):
            return
        if self.policy.name == "colocated":
            self._start_colocated_train(step)
        else:
            start = max(self.now, self.train_free)
            duration = self.cost.t_train(self.rewarded.get(step, 0))
            self.train_started.add(step)
            self.train_free = start + duration
            self._push(start + duration, "train_done", (step, start, None))

    def _start_colocated_train(self, step: int) -> None:
        # Strict alternation: every worker must have drained this step first.
        for worker in self.workers:
            if worker.step < step or worker.inflight:
                return
        if any(t.worker is None for t in self.carry_in.get(step, [])):
            return
        self.train_started.add(step)
        batch = self.rewarded.get(step, 0)
        duration = self.cost.t_train(batch)
        switch = self.cost.context_switch_frac * duration
        start = self.now
        # Every worker switches to training, trains, and switches back.
        switch_span = [start, start + 2 * switch + duration]
        for worker in self.workers:
            self._close_share(worker)
            worker.free_at = switch_span[1]
        self._push(start + switch + duration, "train_done", (step, start + switch, switch_span))

    def _on_train_done(self, step: int, start: float, switch: list[float] | None) -> None:
        duration = self.now - start
        self.last_train_duration = duration
        self.train_done_time[step] = self.now
        # Weights trained on step k are current for step k+1 under colocated
        # alternation and for step k+2 in the overlapped pipeline; the version
        # is named by the step it serves.
        if self.policy.name == "colocated":
            version, avail = step, self.now
        else:
            version, avail = step + 1, self.now + self.cluster.weight_propagation_delay
        self.weight_avail[version] = avail
        self._emit("train_done", {
            "step": step, "batch": self.rewarded.get(step, 0), "start": start,
            "duration": duration, "publishes_version": version, "switch": switch,
        })
        self._emit("weight_update", {
            "version": version, "trained_on_step": step, "available_at": avail,
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
            self.replayed = histospec(self.trace, self.spec_config)
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

    # -- metrics --------------------------------------------------------------

    def _check_drained(self) -> None:
        finishes = Counter(e.payload["sample"] for e in self.events
                           if e.kind == "rollout_finish")
        problems = []
        unfinished = sorted(sid for sid in self.scheduled_ids if finishes[sid] != 1)
        if unfinished:
            problems.append(f"{len(unfinished)} samples not finished exactly once "
                            f"(first: {', '.join(unfinished[:5])})")
        untrained = [s for s in range(1, self.steps + 1) if s not in self.train_done_time]
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
        self._emit("run_end", {"rollout_workers": len(self.workers)})
        return SimResult(events=self.events, **vars(derive(self.events)))


def derive(events: Iterable[SimEvent]) -> RunSummary:
    """The timeline, metrics, accounting and per-step speculation rows of a
    run, from its event log alone: in memory, or read back from a written
    `.events.jsonl` with `SimEvent.from_dict`. A log that is not one run's,
    such as one cut before its `run_end`, raises KeyError or ValueError."""
    activity = defaultdict(list)  # worker -> [(start, end, activity)]
    share_opened: dict[int, float] = {}
    colocated, rewards, trains, spec_stats = [], [], [], []
    scheduled, completed = {}, {}
    migrations = inter_step = trained = 0
    totals = Counter()
    n = None
    for event in events:
        kind, time, e = event.kind, event.time, event.payload
        if kind == "rollout_finish":
            scheduled[e["sample"]] = e["scheduled_step"]
            completed[e["sample"]] = e["step"]
        elif kind == "reward_done":
            rewards.append((e["start"], time))
        elif kind == "share_start":
            share_opened[e["worker"]] = time
        elif kind == "share_end":
            start = share_opened.pop(e["worker"])
            if time > start:
                activity[e["worker"]].append((start, time, "rollout"))
        elif kind == "migration":
            migrations += 1
            inter_step += e["migration_kind"] == "inter_step"
        elif kind == "train_done":
            trained += e["batch"]
            trains.append((e["start"], time))
            if e["switch"] is not None:
                # Colocated training holds every rollout worker: a context
                # switch, the train job, and a switch back.
                before, after = e["switch"]
                colocated += [(before, e["start"], "switch"), (e["start"], time, "train"),
                              (time, after, "switch")]
        elif kind == "step_boundary":
            totals.update(e["replay"])
            r = SpecStats(**e["replay"])
            spec_stats.append([e["step"], r.speculation_rate, r.acceptance_rate,
                               r.verify_passes, r.decode_passes])
        elif kind == "run_end":
            makespan, n = time, e["rollout_workers"]

    if n is None:
        raise ValueError("the log has no run_end event")
    timeline, busy = [], []
    kinds = {"rollout": 0.0, "train": 0.0, "switch": 0.0}
    for wid in range(n):
        total = prev_end = 0.0
        for start, end, kind in sorted(activity[wid] + colocated):
            if start < prev_end - 1e-6:
                raise AssertionError(f"overlapping activities on worker {wid}")
            prev_end = end
            total += end - start
            kinds[kind] += end - start
            timeline.append((wid, start, end, kind))
        busy.append(total)
    wall = makespan * n if makespan > 0 else 1.0
    idle_total = sum(makespan - b for b in busy)
    replay = SpecStats(**totals)
    # Throughput counts the samples some step trained on: with
    # oversampling, those rewarded after the last train job started are
    # completed but never used.
    metrics = MetricsReport(
        samples_per_second=trained / makespan if makespan > 0 else 0.0,
        makespan=makespan,
        samples=len(completed),
        trained_samples=trained,
        steps=len(spec_stats),
        bubble_fraction=idle_total / wall,
        bubble_per_worker=[(makespan - b) / makespan if makespan > 0 else 0.0 for b in busy],
        stage_shares={**{k: v / wall for k, v in kinds.items()}, "idle": idle_total / wall},
        stage_durations={
            "rollout": _union_length([(s, e) for _, s, e, k in timeline if k == "rollout"]),
            "reward": _union_length(rewards),
            "train": _union_length(trains),
        },
        migration_pct=100.0 * migrations / len(scheduled) if scheduled else 0.0,
        speculation_rate=replay.speculation_rate,
        acceptance_rate=replay.acceptance_rate,
    )
    accounting = {"scheduled": dict(sorted(scheduled.items())),
                  "completed": dict(sorted(completed.items())),
                  "migrations": migrations, "inter_migrations": inter_step}
    return RunSummary(metrics, sorted(timeline), accounting, spec_stats)


def _union_length(spans: list[tuple[float, float]]) -> float:
    if not spans:
        return 0.0
    total = 0.0
    spans = sorted(spans)
    cur_s, cur_e = spans[0]
    for s, e in spans[1:]:
        if s > cur_e:
            total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    total += cur_e - cur_s
    return total


def run(trace: Trace | list[Response], cluster: ClusterSpec, policy: Policy,
        cost: CostConfig | None = None, spec_config: SpecConfig | None = None) -> SimResult:
    """Simulate the full pipeline over the trace; deterministic per inputs."""
    if not isinstance(trace, Trace):
        trace = Trace(trace)
    sim = _Simulation(trace, cluster, policy, cost or CostConfig(),
                      spec_config or SpecConfig())
    return sim.run()
