"""Per-response speculative decoding replay.

Speculation never changes what a response says, only how many engine
iterations it takes to say it: drafts come from the prompt's history index,
verification is an exact prefix comparison against the replayed ground-truth
continuation, and every verify pass also yields the one token a normal decode
step would have produced. The speculation window grows additively on full
acceptance and collapses to its initial size on any rejection; the lookup
prefix shrinks while matches fail and snaps back once one succeeds. A batch
gate disables speculation outright when the worker's batch is already large
enough that verification overhead would not pay off at the observed
acceptance rate.

:func:`replay_response` runs one response to completion as a single loop
over plain integers (position, window size, prefix length); a response
replayed without a tree takes one iteration per token. A response walks its
prompt's index once, up front: `SuffixTree.match_lengths` gives, at every
position, the longest suffix of the truth so far that occurs in the history.
A lookup prefix occurs exactly when that length reaches its own, so the index
is asked for a draft only then, and a miss costs one comparison.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from .history import SuffixTree

WINDOW_INIT = 2
WINDOW_ADD = 2
WINDOW_MAX = 32
PREFIX_INIT = 7
PREFIX_MIN = 3
GATE_BUCKETS = 10
GATE_DEFAULT_MAX_BATCH = 8192


def verify(draft: list[int], truth: Sequence[int]) -> int:
    """Accepted token count: the longest common prefix of draft and truth."""
    n = 0
    for d, t in zip(draft, truth):
        if d != t:
            break
        n += 1
    return n


@dataclass
class SpecStats:
    """Token and pass counters summed over every replayed response."""

    tokens_total: int = 0
    tokens_speculated: int = 0
    tokens_accepted: int = 0
    verify_passes: int = 0
    decode_passes: int = 0

    def add(self, other: SpecStats) -> None:
        """Add `other`'s counters to these."""
        self.tokens_total += other.tokens_total
        self.tokens_speculated += other.tokens_speculated
        self.tokens_accepted += other.tokens_accepted
        self.verify_passes += other.verify_passes
        self.decode_passes += other.decode_passes

    @property
    def speculation_rate(self) -> float:
        return self.tokens_accepted / self.tokens_total if self.tokens_total else 0.0

    @property
    def acceptance_rate(self) -> float:
        return self.tokens_accepted / self.tokens_speculated if self.tokens_speculated else 0.0


@dataclass
class SpecConfig:
    """Engine knobs; mirrored one-to-one by the `spec.*` config keys.

    `gate_table` is the batch gate: `gate_table[i]` is the largest batch a
    worker may speculate on when the acceptance rate so far is in
    [i/10, (i+1)/10), a rate of exactly 1.0 falling into the top bucket. It
    has 10 buckets and never decreases: lower acceptance never allows a
    larger batch. Any sequence of numbers is taken and kept as a tuple of
    ints, so a JSON list in a config file works. The default allows 8192
    in-flight rollouts at any acceptance rate.
    """

    window_init: int = WINDOW_INIT
    window_add: int = WINDOW_ADD
    window_max: int = WINDOW_MAX
    prefix_init: int = PREFIX_INIT
    prefix_min: int = PREFIX_MIN
    gate_table: tuple[int, ...] = (GATE_DEFAULT_MAX_BATCH,) * GATE_BUCKETS

    def __post_init__(self):
        if not (1 <= self.window_init <= self.window_max):
            raise ValueError(f"window needs 1 <= window_init <= window_max: {self}")
        if not (1 <= self.prefix_min <= self.prefix_init):
            raise ValueError(f"prefix needs 1 <= prefix_min <= prefix_init: {self}")
        table = self.gate_table = tuple(int(v) for v in self.gate_table)
        if len(table) != GATE_BUCKETS:
            raise ValueError(f"gate table needs {GATE_BUCKETS} buckets, got {len(table)}")
        if any(a > b for a, b in zip(table, table[1:])):
            raise ValueError("gate table must be non-decreasing in acceptance bucket")


def gate_check(config: SpecConfig, current_batch: int, recent_acceptance: float) -> bool:
    """True when speculation stays enabled for this batch size."""
    bucket = min(int(recent_acceptance * GATE_BUCKETS), GATE_BUCKETS - 1)
    bucket = max(bucket, 0)
    return current_batch <= config.gate_table[bucket]


def next_window(config: SpecConfig, size: int, all_accepted: bool) -> int:
    """AIMD window: grow by `window_add` on a fully accepted draft (capped at
    `window_max`), else reset to `window_init`."""
    if all_accepted:
        return min(size + config.window_add, config.window_max)
    return config.window_init


def next_prefix_len(config: SpecConfig, length: int, found: bool) -> int:
    """Lookup prefix length: back to `prefix_init` on a hit, one shorter
    (floored at `prefix_min`) on a miss."""
    if found:
        return config.prefix_init
    return max(length - 1, config.prefix_min)


@dataclass
class ResponseReplay:
    """Full replay of one response: tokens landed per engine iteration."""

    tokens_per_iter: list[int]
    drafted: int
    accepted: int

    @property
    def iterations(self) -> int:
        return len(self.tokens_per_iter)

    @property
    def total_tokens(self) -> int:
        return sum(self.tokens_per_iter)


def replay_response(truth: Sequence[int], tree: SuffixTree | None, config: SpecConfig,
                    stats: SpecStats | None = None) -> ResponseReplay:
    """Run a response to completion and report its iteration profile.

    Each iteration is either a plain decode of one token or a draft+verify
    pass that lands the accepted run plus its bonus token. With `tree` None
    nothing is drafted. `stats`, when given, receives the response's counters.
    """
    n = len(truth)
    per_iter: list[int] = []
    drafted = accepted = verify_passes = 0
    if tree is None:
        per_iter = [1] * n
    else:
        # The prefix ending at pos occurs exactly when matched[pos - 1] is at
        # least its length.
        matched = tree.match_lengths(truth)
        pos = 0
        window = config.window_init
        prefix_len = config.prefix_init
        prefix_min = config.prefix_min
        while pos < n:
            if pos < prefix_len:
                pos += 1
                per_iter.append(1)
                continue
            if matched[pos - 1] < prefix_len:
                # A miss: decode, and shrink the prefix as next_prefix_len
                # does, inlined since most iterations of a dissimilar
                # response end here.
                pos += 1
                per_iter.append(1)
                if prefix_len > prefix_min:
                    prefix_len -= 1
                continue
            draft = tree.extract_draft(truth[pos - prefix_len : pos], window).tokens
            prefix_len = next_prefix_len(config, prefix_len, True)
            if not draft:
                # Plain decode: the prefix occurs only at the ends of responses.
                pos += 1
                per_iter.append(1)
                continue
            landed = verify(draft, truth[pos : pos + len(draft)])
            # The verify forward pass itself emits the next token.
            bonus = 1 if pos + landed < n else 0
            pos += landed + bonus
            per_iter.append(landed + bonus)
            drafted += len(draft)
            accepted += landed
            verify_passes += 1
            window = next_window(config, window, landed == len(draft))
    if stats is not None:
        stats.tokens_total += n
        stats.tokens_speculated += drafted
        stats.tokens_accepted += accepted
        stats.verify_passes += verify_passes
        stats.decode_passes += len(per_iter) - verify_passes
    return ResponseReplay(per_iter, drafted, accepted)
