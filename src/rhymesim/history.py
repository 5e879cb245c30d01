"""Per-prompt suffix indexes over historical rollout responses.

Each prompt gets a generalized suffix automaton over its previous-epoch
responses (Blumer et al., 1985). A state is a set of substrings with the
same end positions in the responses, so every string in a state has the same
continuations. Each end position carries the reward of its response, and a
state's mass is the reward summed over its end positions: the reward-weighted
occurrence count of each of its strings. A draft walks the prefix to its
state and then follows, up to the window, each state's best next token: the
one whose extension has the largest mass, ties to the smallest token id, so
continuations drawn from high-reward responses win. Construction is linear
in the total token count n, and the automaton has at most 2n + 1 states.

A :class:`HistoryStore` holds one immutable index per prompt (latest
ingested epoch only). It builds a replacement on the caller's thread and
swaps it in once complete, so readers always see a whole index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple


class StaleEpochError(ValueError):
    """Raised when ingesting an epoch not newer than what the store holds."""


@dataclass
class Response:
    """One rollout sample: a token sequence with its scalar reward."""

    prompt_id: str
    epoch: int
    tokens: list[int]
    reward: float

    @property
    def generated_len(self) -> int:
        return len(self.tokens)


@dataclass
class DraftResult:
    """Draft tokens extracted for a prefix, empty when the prefix is unknown."""

    tokens: list[int]
    matched_prefix_len: int
    source_priority: float

    @property
    def found(self) -> bool:
        return self.matched_prefix_len > 0


class Cursor(NamedTuple):
    """A matched prefix: the automaton state it reaches and that state's
    reward mass."""

    state: int
    priority: float


class SuffixTree:
    """Generalized suffix automaton over one prompt's responses of one epoch.

    State 0 is the empty string. `next[v]` maps a token to the state reached
    by appending it, `mass[v]` is the reward mass of the end positions of
    the strings in `v`, and `best[v]` is the draft's next token out of `v`
    (-1 when the strings of `v` are never followed by a token). The name is
    the one the index has always had; :func:`build_tree` makes it.
    """

    def __init__(self, prompt_id: str, epoch: int, next: list[dict[int, int]],
                 mass: list[float], best: list[int], total_tokens: int):
        self.prompt_id = prompt_id
        self.epoch = epoch
        self.next = next
        self.mass = mass
        self.best = best
        self.total_tokens = total_tokens

    @property
    def node_count(self) -> int:
        return len(self.mass)

    def match_prefix(self, prefix: list[int]) -> Cursor | None:
        """Walk `prefix` from state 0; None when it occurs in no response."""
        if not prefix:
            raise ValueError("prefix must be non-empty")
        nxt = self.next
        v = 0
        for tok in prefix:
            v = nxt[v].get(tok)
            if v is None:
                return None
        return Cursor(v, self.mass[v])

    def extract_draft(self, prefix: list[int], window: int) -> DraftResult:
        """Greedy max-mass continuation of `prefix`, up to `window` tokens.

        Ties between equal-mass continuations go to the smallest token.
        """
        if window < 1:
            raise ValueError("window must be >= 1")
        cursor = self.match_prefix(prefix)
        if cursor is None:
            return DraftResult(tokens=[], matched_prefix_len=0, source_priority=0.0)
        nxt, best = self.next, self.best
        out: list[int] = []
        v = cursor.state
        while len(out) < window:
            tok = best[v]
            if tok < 0:
                break
            out.append(tok)
            v = nxt[v][tok]
        return DraftResult(tokens=out, matched_prefix_len=len(prefix), source_priority=cursor.priority)


def build_tree(prompt_id: str, epoch: int, responses: list[Response]) -> SuffixTree:
    """Build the suffix index for one prompt's epoch of responses.

    An empty response list yields the index of the empty string alone. NaN
    rewards, empty token lists, and mismatched prompt ids are rejected.
    """
    nxt: list[dict[int, int]] = [{}]
    link = [-1]
    length = [0]
    mass = [0.0]

    def split(p: int, tok: int, q: int) -> int:
        # The strings of q that are one token longer than p's longest get a
        # state of their own, which every suffix of p leading to q now uses.
        clone = len(length)
        nxt.append(dict(nxt[q]))
        link.append(link[q])
        length.append(length[p] + 1)
        mass.append(0.0)
        link[q] = clone
        while p >= 0 and nxt[p].get(tok) == q:
            nxt[p][tok] = clone
            p = link[p]
        return clone

    total_tokens = 0
    for resp in responses:
        if resp.prompt_id != prompt_id:
            raise ValueError(f"response prompt {resp.prompt_id!r} != tree prompt {prompt_id!r}")
        if not resp.tokens:
            raise ValueError("cannot index an empty response")
        if not math.isfinite(resp.reward):
            raise ValueError(f"reward must be finite, got {resp.reward!r}")
        total_tokens += len(resp.tokens)
        last = 0
        for tok in resp.tokens:
            q = nxt[last].get(tok)
            if q is not None:
                # The extended prefix already occurs in an earlier response.
                last = q if length[q] == length[last] + 1 else split(last, tok, q)
            else:
                cur = len(length)
                nxt.append({})
                length.append(length[last] + 1)
                link.append(0)
                mass.append(0.0)
                p = last
                while p >= 0 and tok not in nxt[p]:
                    nxt[p][tok] = cur
                    p = link[p]
                if p >= 0:
                    q = nxt[p][tok]
                    link[cur] = q if length[q] == length[p] + 1 else split(p, tok, q)
                last = cur
            mass[last] += resp.reward
    # A string's end positions are those of its own state and of every state
    # whose suffix link chain passes through it; longer states come first.
    for v in sorted(range(1, len(length)), key=length.__getitem__, reverse=True):
        mass[link[v]] += mass[v]
    # Most states have at most one transition; only branching ones compare.
    best = [next(iter(t), -1) if len(t) < 2 else max(t, key=lambda tok: (mass[t[tok]], -tok))
            for t in nxt]
    return SuffixTree(prompt_id, epoch, nxt, mass, best, total_tokens)


@dataclass
class MemoryStats:
    prompt_count: int
    total_nodes: int
    total_tokens: int


class HistoryStore:
    """Latest-epoch suffix indexes for many prompts.

    `ingest_epoch` builds the new index completely and only then replaces the
    visible one, so `get_tree` always returns a whole, immutable snapshot.
    Re-ingesting an old or current epoch raises :class:`StaleEpochError`.
    """

    def __init__(self):
        self._trees: dict[str, SuffixTree] = {}

    def ingest_epoch(self, prompt_id: str, epoch: int, responses: list[Response]) -> None:
        """Index one prompt's epoch and make it the visible index."""
        current = self._trees.get(prompt_id)
        if current is not None and epoch <= current.epoch:
            raise StaleEpochError(
                f"epoch {epoch} for prompt {prompt_id!r} is not newer than "
                f"already-ingested epoch {current.epoch}"
            )
        self._trees[prompt_id] = build_tree(prompt_id, epoch, responses)

    def get_tree(self, prompt_id: str) -> SuffixTree | None:
        return self._trees.get(prompt_id)

    def memory_stats(self) -> MemoryStats:
        trees = list(self._trees.values())
        return MemoryStats(len(trees), sum(t.node_count for t in trees),
                           sum(t.total_tokens for t in trees))
