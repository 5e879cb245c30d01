"""Span recorder for the traced benchmark run.

The recorder times calls into `rhymesim` from outside the program: it
replaces public entry points at the module attribute the caller looks up
(for example `rhymesim.sim.replay_response`, which `sim` resolves through its
own globals) with a wrapper that records a span, and puts the original back
on `uninstall()`. Spans are kept in memory with their parent and written out
once the run ends. A wrapped name that no longer exists is reported as
absent, so the benchmark keeps working when a later change renames or
removes one of them; that layer's metrics then read zero.

Spans nest per thread. A span opened on a thread with no open span of its
own (the history store's build pool) takes the main thread's innermost open
span as its parent: the call that is blocked waiting for it.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import importlib
import itertools
import threading
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter

# Every this-many-th draft lookup and speculative replay keeps its arguments
# for the brute-force output checks.
SAMPLE_EVERY = 211


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


# Counters run after a span's end time is taken, so their cost lands in the
# parent span (and in trace.overhead_s), not in the span they describe.

def _count_tokens(record, counts, args, kwargs, result):
    counts["tokens"] += sum(len(r.tokens) for r in result)


def _count_write(record, counts, args, kwargs, result):
    counts["bytes"] += len(_arg(args, kwargs, 1, "text"))


def _count_events(record, counts, args, kwargs, result):
    counts["events"] += len(result.events)


def _count_tree(record, counts, args, kwargs, result):
    counts["tokens"] += result.total_tokens


def _count_replay(record, counts, args, kwargs, result):
    counts["iterations"] += result.iterations
    counts["drafted"] += result.drafted
    counts["accepted"] += result.accepted
    tree = _arg(args, kwargs, 1, "tree")
    if tree is not None:
        counts["with_tree"] += 1
        if counts["with_tree"] % SAMPLE_EVERY == 1:
            truth = _arg(args, kwargs, 0, "truth")
            record.replay_samples.append((tree.prompt_id, tree.epoch, list(truth)))


def _count_draft(record, counts, args, kwargs, result):
    n = len(result.tokens)
    counts["draft_tokens"] += n
    counts["hits"] += n > 0
    counts["seen"] += 1
    if counts["seen"] % SAMPLE_EVERY == 1:
        tree = args[0]
        prefix = _arg(args, kwargs, 1, "prefix")
        record.draft_samples.append((tree.prompt_id, tree.epoch, list(prefix), list(result.tokens)))


def _count_migration(record, counts, args, kwargs, result):
    counts["migrates"] += result.migrates


# (span name, module, attribute path in that module, counter). `cli` imports
# `generate` and `run` by name, so those two are wrapped where `cli` sees them.
TARGETS = (
    ("tracegen.generate", "rhymesim.cli", "generate", _count_tokens),
    ("io.read_trace", "rhymesim.io", "read_trace", _count_tokens),
    ("io.write", "rhymesim.io", "atomic_write_text", _count_write),
    ("sim.run", "rhymesim.cli", "run", _count_events),
    ("history.build", "rhymesim.history", "build_tree", _count_tree),
    ("history.draft", "rhymesim.history", "SuffixTree.extract_draft", _count_draft),
    ("spec_engine.replay", "rhymesim.sim", "replay_response", _count_replay),
    ("scheduler.plan", "rhymesim.sim", "plan_allocation", None),
    ("scheduler.groups", "rhymesim.sim", "build_groups", None),
    ("scheduler.migration", "rhymesim.sim", "migration_decision", _count_migration),
)


@dataclass(slots=True)
class Span:
    sid: int
    parent: int  # -1 for a root span
    name: str
    start: float
    end: float
    self_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class PassRecord:
    """Spans, counters and argument samples of one traced phase."""

    spans: list[Span] = field(default_factory=list)
    counters: dict[str, Counter] = field(default_factory=dict)
    draft_samples: list[tuple] = field(default_factory=list)
    replay_samples: list[tuple] = field(default_factory=list)
    # name -> [calls, total seconds, self seconds], filled by SpanRecorder.end_pass
    totals: dict[str, list] = field(default_factory=dict)

    def calls(self, name: str) -> int:
        return self.totals.get(name, (0, 0.0, 0.0))[0]

    def seconds(self, name: str) -> float:
        return self.totals.get(name, (0, 0.0, 0.0))[1]

    def self_seconds(self, name: str) -> float:
        return self.totals.get(name, (0, 0.0, 0.0))[2]

    def count(self, name: str, key: str) -> int:
        return self.counters.get(name, Counter())[key]


def derive_self_times(spans: list[Span]) -> None:
    """Set each span's self time: its duration minus its children's durations."""
    child_s: dict[int, float] = {}
    for s in spans:
        if s.parent >= 0:
            child_s[s.parent] = child_s.get(s.parent, 0.0) + s.duration
    for s in spans:
        s.self_s = s.duration - child_s.get(s.sid, 0.0)


class SpanRecorder:
    def __init__(self):
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_ident = threading.get_ident()
        self._main_stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []
        self.absent: list[str] = []
        self.current: PassRecord | None = None

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        if self._originals:
            raise RuntimeError("span recorder already installed")
        self.absent = []
        for name, module_name, attr_path, counter in TARGETS:
            owner, attr = _resolve(module_name, attr_path)
            if owner is None:
                self.absent.append(f"{module_name}.{attr_path}")
                continue
            original = getattr(owner, attr)
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, counter))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals = []

    # -- recording -----------------------------------------------------------

    def begin_pass(self) -> PassRecord:
        self.current = PassRecord()
        return self.current

    def end_pass(self) -> PassRecord:
        record, self.current = self.current, None
        record.spans.sort(key=lambda s: s.sid)
        derive_self_times(record.spans)
        for s in record.spans:
            t = record.totals.setdefault(s.name, [0, 0.0, 0.0])
            t[0] += 1
            t[1] += s.duration
            t[2] += s.self_s
        return record

    @contextlib.contextmanager
    def span(self, name: str):
        """Record a span around the benchmark's own call."""
        sid, parent, stack = self._open()
        start = perf_counter()
        try:
            yield
        finally:
            self._close(name, sid, parent, stack, start, perf_counter())

    def _open(self) -> tuple[int, int, list[int]]:
        sid = next(self._ids)
        if threading.get_ident() == self._main_ident:
            stack = self._main_stack
        else:
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
        if stack:
            parent = stack[-1]
        elif self._main_stack:
            parent = self._main_stack[-1]
        else:
            parent = -1
        stack.append(sid)
        return sid, parent, stack

    def _close(self, name, sid, parent, stack, start, end) -> None:
        stack.pop()
        if self.current is not None:
            self.current.spans.append(Span(sid, parent, name, start, end))

    def _wrap(self, name: str, fn, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid, parent, stack = self._open()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name, sid, parent, stack, start, perf_counter())
            record = self.current
            if counter is not None and record is not None:
                counts = record.counters.get(name)
                if counts is None:
                    counts = record.counters[name] = Counter()
                counter(record, counts, args, kwargs, result)
            return result

        return wrapper


def _resolve(module_name: str, attr_path: str):
    """(object holding the attribute, attribute name), or (None, None)."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None, None
    *parents, attr = attr_path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None
    if not callable(getattr(owner, attr, None)):
        return None, None
    return owner, attr


def write_spans(path, phases: list[tuple[str, PassRecord]]) -> None:
    """Write spans as CSV, times in seconds from each phase's first span."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["phase", "id", "parent", "name", "start_s", "end_s", "self_s"])
        for phase, record in phases:
            if not record.spans:
                continue
            t0 = min(s.start for s in record.spans)
            for s in record.spans:
                writer.writerow([phase, s.sid, s.parent, s.name, f"{s.start - t0:.9f}",
                                 f"{s.end - t0:.9f}", f"{s.self_s:.9f}"])
