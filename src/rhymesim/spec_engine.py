"""Per-response speculative decoding replay.

Speculation never changes what a response says, only how many engine
iterations it takes to say it: drafts come from the prompt's history index,
verification is an exact prefix comparison against the replayed ground-truth
continuation, and every verify pass also yields the one token a normal decode
step would have produced. The speculation window starts at `WINDOW_INIT`
tokens, grows by `WINDOW_ADD` on full acceptance up to `WINDOW_MAX`, and
collapses to `WINDOW_INIT` on any rejection; the lookup prefix starts at
`PREFIX_INIT` tokens, shrinks by one while matches fail down to `PREFIX_MIN`,
and snaps back to `PREFIX_INIT` once one succeeds. These five constants are
the engine's only settings.

:func:`replay_response` runs one response against its prompt's index as a
single loop over plain integers (position, window size, prefix length) and
returns one :class:`Replayed`. A response that is not speculated is never
replayed: it decodes one token per iteration, and :meth:`SpecStats.count`
adds its counters as it adds a replay's. A response walks its prompt's index
once, up front: `SuffixTree.match_lengths` gives, at every position, the
longest suffix of the truth so far that occurs in the history. A lookup
prefix occurs exactly when that length reaches its own, so the index is
asked for a draft only then, and a miss costs one comparison.
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

from .history import SuffixTree

WINDOW_INIT = 2
WINDOW_ADD = 2
WINDOW_MAX = 32
PREFIX_INIT = 7
PREFIX_MIN = 3


def verify(draft: list[int], truth: Sequence[int]) -> int:
    """Accepted token count: the longest common prefix of draft and truth."""
    n = 0
    for d, t in zip(draft, truth):
        if d != t:
            break
        n += 1
    return n


class Replayed(NamedTuple):
    """One response's replay against its prompt's index."""

    iterations: int
    profile: array | None  # cumulative tokens after each iteration; None = 1/iter
    drafted: int
    accepted: int
    verify_passes: int


@dataclass
class SpecStats:
    """Token and pass counters summed over responses, replayed or not."""

    tokens_total: int = 0
    tokens_speculated: int = 0
    tokens_accepted: int = 0
    verify_passes: int = 0
    decode_passes: int = 0

    def count(self, tokens: int, replay: Replayed | None = None) -> None:
        """Add the counters of one response of `tokens` tokens, replayed as
        `replay`, or decoded one token per iteration when it is None."""
        self.tokens_total += tokens
        if replay is None:
            self.decode_passes += tokens
            return
        self.tokens_speculated += replay.drafted
        self.tokens_accepted += replay.accepted
        self.verify_passes += replay.verify_passes
        self.decode_passes += replay.iterations - replay.verify_passes

    @property
    def speculation_rate(self) -> float:
        return self.tokens_accepted / self.tokens_total if self.tokens_total else 0.0

    @property
    def acceptance_rate(self) -> float:
        return self.tokens_accepted / self.tokens_speculated if self.tokens_speculated else 0.0


def next_window(size: int, all_accepted: bool) -> int:
    """AIMD window: grow by `WINDOW_ADD` on a fully accepted draft (capped at
    `WINDOW_MAX`), else reset to `WINDOW_INIT`."""
    if all_accepted:
        return min(size + WINDOW_ADD, WINDOW_MAX)
    return WINDOW_INIT


def replay_response(truth: Sequence[int], tree: SuffixTree) -> Replayed:
    """Run a response to completion against `tree` and report its iteration
    profile and counters.

    Each iteration is either a plain decode of one token or a draft+verify
    pass that lands the accepted run plus its bonus token, so every
    iteration lands at least one token.
    """
    n = len(truth)
    # Cumulative tokens after each iteration. It grows as a list: CPython
    # appends to a list about three times as fast as to an array.
    profile: list[int] = []
    drafted = accepted = verify_passes = 0
    # The prefix ending at pos occurs exactly when matched[pos - 1] is at
    # least its length.
    matched = tree.match_lengths(truth)
    pos = 0
    window = WINDOW_INIT
    prefix_len = PREFIX_INIT
    while pos < n:
        if pos < prefix_len:
            pos += 1
            profile.append(pos)
            continue
        if matched[pos - 1] < prefix_len:
            # A miss: a plain decode.
            pos += 1
            profile.append(pos)
            if prefix_len > PREFIX_MIN:
                prefix_len -= 1
            continue
        draft = tree.extract_draft(truth[pos - prefix_len : pos], window).tokens
        prefix_len = PREFIX_INIT
        if not draft:
            # Plain decode: the prefix occurs only at the ends of responses.
            pos += 1
            profile.append(pos)
            continue
        landed = verify(draft, truth[pos : pos + len(draft)])
        # The verify forward pass itself emits the next token.
        bonus = 1 if pos + landed < n else 0
        pos += landed + bonus
        profile.append(pos)
        drafted += len(draft)
        accepted += landed
        verify_passes += 1
        window = next_window(window, landed == len(draft))
    iterations = len(profile)
    return Replayed(iterations, array("i", profile) if iterations != n else None,
                    drafted, accepted, verify_passes)
