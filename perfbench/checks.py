"""Output checks for the benchmark, computed apart from the program.

Every check compares a run's outputs with the trace file (parsed here with
the `json` module, not with `rhymesim.io`) or with a property the method
must have. None compares with a stored copy of earlier output. Each check
returns a list of failure messages; an empty list means it passed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass


@dataclass
class TraceIndex:
    """The trace file as plain data."""

    lengths: dict[str, int]  # sample id -> response length in tokens
    tokens: dict[tuple[str, int], list[list[int]]]  # (prompt, epoch) -> responses

    @property
    def total_tokens(self) -> int:
        return sum(self.lengths.values())


def sample_id(prompt: str, epoch: int, member: int) -> str:
    """The events log's name for the `member`-th response of a prompt's epoch."""
    return f"{prompt}/e{epoch}/{member}"


def load_trace(path) -> TraceIndex:
    lengths: dict[str, int] = {}
    tokens: dict[tuple[str, int], list[list[int]]] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            rec = json.loads(line)
            group = tokens.setdefault((rec["prompt_id"], rec["epoch"]), [])
            lengths[sample_id(rec["prompt_id"], rec["epoch"], len(group))] = len(rec["tokens"])
            group.append(rec["tokens"])
    return TraceIndex(lengths, tokens)


def load_events(path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def check_events(events: list[dict], trace: TraceIndex, rollout_workers: int,
                 speculation: bool) -> list[str]:
    """Conservation, token counts, the weight contract, causality and the
    worker budget, from one run's events log."""
    failures: list[str] = []
    finish: dict[str, dict] = {}
    rewards: dict[str, list[dict]] = {}
    for ev in events:
        kind = ev["kind"]
        if kind == "rollout_finish":
            sid = ev["sample"]
            if sid in finish:
                failures.append(f"{sid}: more than one rollout_finish")
            finish[sid] = ev
            length = trace.lengths.get(sid)
            if length is None:
                failures.append(f"{sid}: rollout_finish for a sample not in the trace")
            elif ev["tokens"] != length:
                failures.append(f"{sid}: tokens {ev['tokens']} != response length {length}")
            iters = ev["iterations"]
            if speculation and not 1 <= iters <= ev["tokens"]:
                failures.append(f"{sid}: iterations {iters} outside [1, tokens={ev['tokens']}]")
            if not speculation and iters != ev["tokens"]:
                failures.append(f"{sid}: iterations {iters} != tokens {ev['tokens']} "
                                "without speculation")
            if ev["weight_version"] != ev["scheduled_step"] - 1:
                failures.append(f"{sid}: weight_version {ev['weight_version']} != "
                                f"scheduled_step {ev['scheduled_step']} - 1")
        elif kind == "reward_done":
            rewards.setdefault(ev["sample"], []).append(ev)
        elif kind == "step_boundary":
            if len(ev["workers"]) > rollout_workers:
                failures.append(f"step {ev['step']}: {len(ev['workers'])} workers mapped, "
                                f"budget {rollout_workers}")
            alloc = ev.get("allocation")
            if alloc is not None and sum(alloc["per_group_workers"]) > rollout_workers:
                failures.append(f"step {ev['step']}: allocation {alloc['per_group_workers']} "
                                f"exceeds {rollout_workers} rollout workers")
    missing = trace.lengths.keys() - finish.keys()
    if missing:
        failures.append(f"{len(missing)} trace responses never finished, e.g. {min(missing)}")
    for sid, ev in finish.items():
        done = rewards.get(sid, [])
        if len(done) != 1:
            failures.append(f"{sid}: {len(done)} reward_done events")
        elif done[0]["time"] < ev["time"] or done[0]["seq"] < ev["seq"]:
            failures.append(f"{sid}: reward_done precedes rollout_finish")
    return failures


def check_run_json(payload: dict, trace: TraceIndex) -> list[str]:
    m = payload["metrics"]
    failures = []
    if m["samples"] != len(trace.lengths):
        failures.append(f"run JSON reports {m['samples']} samples of {len(trace.lengths)}")
    if not m["samples_per_second"] > 0:
        failures.append(f"run JSON samples_per_second {m['samples_per_second']} is not positive")
    return failures


def tokens_per_iteration(events: list[dict]) -> float:
    tokens = iters = 0
    for ev in events:
        if ev["kind"] == "rollout_finish":
            tokens += ev["tokens"]
            iters += ev["iterations"]
    return tokens / iters


def _contains(seq: list[int], part: list[int]) -> bool:
    n = len(part)
    return any(seq[i:i + n] == part for i in range(len(seq) - n + 1))


def check_drafts(samples: list[tuple], trace: TraceIndex) -> list[str]:
    """Each sampled draft continues its prefix exactly as some response of the
    tree's prompt and epoch does (brute-force scan)."""
    failures = []
    for prompt, epoch, prefix, draft in samples:
        if not draft:
            continue
        history = trace.tokens.get((prompt, epoch), [])
        if not any(_contains(resp, prefix + draft) for resp in history):
            failures.append(f"draft for {prompt} from epoch {epoch} is not a continuation "
                            f"of its prefix in that epoch's responses")
    return failures


def check_replay_history(samples: list[tuple], trace: TraceIndex) -> list[str]:
    """A response replayed against a tree of epoch e belongs to epoch e + 1."""
    failures = []
    for prompt, epoch, truth in samples:
        if truth not in trace.tokens.get((prompt, epoch + 1), []):
            failures.append(f"{prompt}: response drafted from epoch {epoch} is not "
                            f"in epoch {epoch + 1}")
    return failures
