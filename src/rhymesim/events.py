"""The event log, the run's one record: its schema, and `derive`, which
computes everything a run reports from the log alone.

An event is its record, one plain dict with its keys in sorted order at every
level, written as it stands: each line is `json.dumps(record, sort_keys=True)`.
`EVENTS` gives each kind's fields besides `kind` and the JSON values each
accepts; every kind has `seq` and `time`. A record's `seq` is drawn from the
simulator's one scheduling counter, which also orders its event queue's
entries: it rises strictly down the log but skips values, so it orders the
records and does not count them.
"""

from __future__ import annotations

import json
import math
from collections import Counter, defaultdict
from collections.abc import Callable
from dataclasses import dataclass

from .spec_engine import SpecStats

EVENTS_SCHEMA_VERSION = 2
SPEC_STATS_HEADER = ["step", "speculation_rate", "acceptance_rate", "verify_passes",
                     "decode_passes"]


def _types(*types: type) -> Callable[[object], bool]:
    # Exact (a JSON bool is an int to isinstance); ints a float holds exactly.
    return lambda v: type(v) in types and (type(v) is not int or abs(v) <= 2**53)


_int, _str, _bool, _int_or_null = _types(int), _types(str), _types(bool), _types(int, type(None))


def _number(value: object) -> bool:
    return _int(value) or type(value) is float and math.isfinite(value)


# A migration also carries where it goes, by its `migration_kind`: the group
# and worker it joins within its step, or the step it finishes in.
MIGRATION_TARGETS = {"intra_step": {"to_group": _int, "to_worker": _int},
                     "inter_step": {"to_step": _int}}
EVENTS: dict[str, dict[str, Callable[[object], bool]]] = {
    kind: {"seq": _int, "time": _number, **fields} for kind, fields in {
    "step_boundary": {
        "allocation": _types(dict, type(None)),  # the two-tier plan, else null
        "policy": _str,  # the policy that planned the step
        # The SpecStats counters of the step's responses, replayed or not.
        "replay": lambda v: (type(v) is dict and v.keys() == vars(SpecStats()).keys()
                             and all(map(_int, v.values()))),
        "step": _int,
        "workers": lambda v: type(v) is dict and all(map(_int, v.values())),  # id -> group
    },
    # A share runs from a worker's first rollout of a step to its last; a
    # continuation handed to a drained worker opens another.
    "share_start": {"step": _int, "worker": _int},
    "share_end": {"step": _int, "worker": _int},
    "rollout_finish": {
        "continuation_version": _int_or_null,  # an inter-step migrant's version, else null
        "iterations": _int, "migrated": _bool, "sample": _str,
        "scheduled_step": _int, "step": _int,  # the steps it was dealt to and finished in
        "tokens": _int, "weight_version": _int, "worker": _int,
    },
    "migration": {
        "from_group": _int, "from_worker": _int,
        "generated": _int,  # tokens it had generated when it moved
        "migration_kind": lambda v: v in list(MIGRATION_TARGETS), "sample": _str,
    },
    "reward_done": {
        "buffered_for": _int_or_null,  # a later step it counts toward, else null
        "sample": _str, "start": _number,  # when a reward worker took it
        "step": _int,  # the step it finished in
    },
    "train_done": {
        "batch": _int, "duration": _number, "publishes_version": _int, "start": _number,
        "step": _int,
        # Colocated's [start of the switch to training, end of the switch back], else null.
        "switch": lambda v: v is None or (type(v) is list and len(v) == 2
                                          and all(map(_number, v))),
    },
    "weight_update": {"available_at": _number, "trained_on_step": _int, "version": _int},
    # Its time is the makespan, which can follow the last other event
    # (colocated's trailing switch).
    "run_end": {"rollout_workers": _int},
}.items()}


def check_record(record: object) -> dict:
    """`record`, one `.events.jsonl` line read back, if it is an event
    record: a JSON object with a known `kind` and exactly the fields `EVENTS`
    gives that kind, each holding a value the table accepts. Anything else
    raises ValueError naming the first field at fault."""
    if type(record) is not dict:
        raise ValueError(f"an event record is a JSON object, not {type(record).__name__}")
    kind = record.get("kind")
    if type(kind) is not str or kind not in EVENTS:
        raise ValueError(f"an event record needs a known kind, not {kind!r}")
    schema = dict(EVENTS[kind])
    if kind == "migration" and record.get("migration_kind") in list(MIGRATION_TARGETS):
        schema.update(MIGRATION_TARGETS[record["migration_kind"]])
    for name, accepts in schema.items():
        if name not in record:
            raise ValueError(f"a {kind} event needs {name}")
        if not accepts(record[name]):
            raise ValueError(f"a {kind} event's {name} cannot be {record[name]!r}")
    extra = sorted(record.keys() - schema.keys() - {"kind"})
    if extra:
        raise ValueError(f"a {kind} event has no {', '.join(extra)}")
    return record


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


@dataclass
class SimResult:
    """A run's event log and everything `derive` computes from it."""

    metrics: MetricsReport
    timeline: list[tuple[int, float, float, str]]  # worker, start, end, activity
    accounting: dict
    spec_stats: list[list]  # SPEC_STATS_HEADER columns, the rates as floats
    events: list[dict]

    def events_jsonl(self) -> str:
        """The log, one record a line, as `json.dumps` writes each. One C
        encoder, made here, writes every line: `json.dumps` makes one per
        call. It takes `JSONEncoder`'s default settings, and keeps no marker
        dict, since a record is never circular."""
        default = json.JSONEncoder()
        make = json.encoder.c_make_encoder
        if make is None:  # no C accelerator in this Python
            return "".join(default.encode(record) + "\n" for record in self.events)
        encode = make(None, default.default, json.encoder.encode_basestring_ascii, None,
                      default.key_separator, default.item_separator, False, default.skipkeys,
                      default.allow_nan)
        return "".join("".join(encode(record, 0)) + "\n" for record in self.events)


def derive(events: list[dict]) -> SimResult:
    """The run whose event records are `events`, with its timeline, metrics,
    accounting and per-step speculation rows computed from the records
    alone: in memory, or read back from a written `.events.jsonl`, each line
    checked by `check_record`. A log that is not one run's, such as one cut
    before its `run_end` or one whose `run_end` counts other workers than
    its steps' plans map, raises KeyError or ValueError, and nothing else."""
    activity = defaultdict(list)  # worker -> [(start, end, activity)]
    share_opened: dict[int, float] = {}
    colocated, rewards, trains, spec_stats = [], [], [], []
    scheduled, completed = {}, {}
    migrations = inter_step = trained = 0
    totals = Counter()
    n = None
    plan_widths = set()  # how many workers each step's plan maps
    for e in events:
        kind, time = e["kind"], e["time"]
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
            plan_widths.add(len(e["workers"]))
            totals.update(e["replay"])
            r = SpecStats(**e["replay"])
            spec_stats.append([e["step"], r.speculation_rate, r.acceptance_rate,
                               r.verify_passes, r.decode_passes])
        elif kind == "run_end":
            makespan, n = time, e["rollout_workers"]

    if n is None or n < 1:
        raise ValueError("the log has no run_end event with a rollout worker")
    # Every step's plan maps every worker, which bounds the loop below.
    if plan_widths != {n}:
        raise ValueError(f"run_end has {n} rollout workers, but the steps' plans map "
                         f"{', '.join(map(str, sorted(plan_widths))) or 'none'}")
    timeline, busy = [], []
    kinds = {"rollout": 0.0, "train": 0.0, "switch": 0.0}
    for wid in range(n):
        total = prev_end = 0.0
        for start, end, kind in sorted(activity[wid] + colocated):
            if start < prev_end:
                raise ValueError(f"overlapping activities on worker {wid}")
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
    return SimResult(metrics, sorted(timeline), accounting, spec_stats, events)


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
