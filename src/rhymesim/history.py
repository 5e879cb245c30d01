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

The automaton is built with one transition dict per state and then packed.
The root keeps its dict, one entry per distinct token, because every lookup
starts there and a dict is the fastest way to miss. Every other state is a
row of flat `array` columns: its mass (8 bytes), its best token and that
token's target (4 each) and a CSR offset (4). Only branching states, 3-9% of
them on the benchmark traces, have transitions besides the best one, stored
as (token, target) pairs of C ints. On the benchmark's epoch-2 indexes the
packed index holds about 55 bytes per indexed token at cross-epoch
similarity 0.9 and 74 at 0.3, against 447 and 357 with every dict kept;
`SuffixTree.index_bytes` reports it.

A :class:`HistoryStore` holds one immutable index per prompt (latest
ingested epoch only). It builds a replacement on the caller's thread and
swaps it in once complete, so readers always see a whole index.
"""

from __future__ import annotations

import math
import struct
import sys
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate, repeat
from typing import NamedTuple


# Token ids and state numbers are stored as C ints; -1 marks "none".
MAX_TOKEN = 2**31 - 1


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
    """Generalized suffix automaton over one prompt's responses of one epoch,
    packed into flat columns once :func:`build_tree` has built it.

    State 0 is the empty string. Its transitions, one per distinct token,
    are the dict `root`, since every lookup starts there. Four columns have
    one entry per state: `mass[v]` is the reward mass of the end positions
    of the strings in `v`, `best[v]` is the draft's next token out of `v`
    (-1 when the strings of `v` are never followed by a token, and for the
    root), `best_to[v]` is the state that token leads to (-1 with it), and
    `off` is a CSR offset (one more entry than states). The other
    transitions of a branching state are `etok[off[v]:off[v + 1]]` (tokens,
    ascending) leading to the states at the same positions of `eto`.
    :meth:`step` follows any token, so no caller needs the layout. The name
    is the one the index has always had.
    """

    __slots__ = ("prompt_id", "epoch", "total_tokens", "root", "mass", "best", "best_to",
                 "off", "etok", "eto")

    def __init__(self, prompt_id: str, epoch: int, root: dict[int, int], mass: array,
                 best: array, best_to: array, off: array, etok: array, eto: array,
                 total_tokens: int):
        self.prompt_id = prompt_id
        self.epoch = epoch
        self.root = root
        self.mass = mass
        self.best = best
        self.best_to = best_to
        self.off = off
        self.etok = etok
        self.eto = eto
        self.total_tokens = total_tokens

    @property
    def node_count(self) -> int:
        return len(self.mass)

    @property
    def index_bytes(self) -> int:
        """Bytes held by the index: `itemsize * len` of each column, plus the
        root dict's table and its state ids above 256 (CPython caches the
        smaller ints; the token keys are the responses' own objects)."""
        columns = (self.mass, self.best, self.best_to, self.off, self.etok, self.eto)
        return (sum(a.itemsize * len(a) for a in columns) + sys.getsizeof(self.root)
                + sum(sys.getsizeof(v) for v in self.root.values() if v > 256))

    def step(self, state: int, tok: int) -> int:
        """The state reached from `state` by appending `tok`; -1 when the
        extended string occurs in no response."""
        if state == 0:
            return self.root.get(tok, -1)
        if self.best[state] == tok:
            return self.best_to[state]
        lo, hi = self.off[state], self.off[state + 1]
        etok = self.etok
        j = bisect_left(etok, tok, lo, hi)
        return self.eto[j] if j < hi and etok[j] == tok else -1

    def match_prefix(self, prefix: list[int]) -> Cursor | None:
        """Walk `prefix` from state 0; None when it occurs in no response."""
        if not prefix:
            raise ValueError("prefix must be non-empty")
        v = 0
        for tok in prefix:
            v = self.step(v, tok)
            if v < 0:
                return None
        return Cursor(v, self.mass[v])

    def extract_draft(self, prefix: list[int], window: int) -> DraftResult:
        """Greedy max-mass continuation of `prefix`, up to `window` tokens.

        Ties between equal-mass continuations go to the smallest token. This
        is the lookup every speculative iteration makes, so it walks the
        prefix with :meth:`step` inlined.
        """
        if window < 1:
            raise ValueError("window must be >= 1")
        if not prefix:
            raise ValueError("prefix must be non-empty")
        best, best_to = self.best, self.best_to
        rest = iter(prefix)
        v = self.root.get(next(rest), -1)
        for tok in rest:
            if v < 0:
                break
            if best[v] == tok:
                v = best_to[v]
            else:
                lo, hi = self.off[v], self.off[v + 1]
                etok = self.etok
                j = bisect_left(etok, tok, lo, hi)
                v = self.eto[j] if j < hi and etok[j] == tok else -1
        if v < 0:
            return DraftResult(tokens=[], matched_prefix_len=0, source_priority=0.0)
        priority = self.mass[v]
        out: list[int] = []
        for _ in range(window):
            tok = best[v]
            if tok < 0:
                break
            out.append(tok)
            v = best_to[v]
        return DraftResult(tokens=out, matched_prefix_len=len(prefix), source_priority=priority)


def build_tree(prompt_id: str, epoch: int, responses: list[Response]) -> SuffixTree:
    """Build the suffix index for one prompt's epoch of responses.

    The automaton is built with one transition dict per state, then packed
    into the columns of :class:`SuffixTree`; only the branching states'
    transitions are copied one by one. An empty response list yields the
    index of the empty string alone. NaN rewards, empty token lists, token
    ids outside [0, MAX_TOKEN] and mismatched prompt ids are rejected.
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
        if min(resp.tokens) < 0 or max(resp.tokens) > MAX_TOKEN:
            raise ValueError(f"token ids must be in [0, {MAX_TOKEN}]")
        total_tokens += len(resp.tokens)
        reward = resp.reward
        last = 0
        for tok in resp.tokens:
            t = nxt[last]
            q = t.get(tok)
            if q is not None:
                # The extended prefix already occurs in an earlier response.
                last = q if length[q] == length[last] + 1 else split(last, tok, q)
            else:
                cur = len(length)
                t[tok] = cur
                nxt.append({})
                length.append(length[last] + 1)
                link.append(0)
                mass.append(0.0)
                p = link[last]
                while p >= 0 and tok not in nxt[p]:
                    nxt[p][tok] = cur
                    p = link[p]
                if p >= 0:
                    q = nxt[p][tok]
                    link[cur] = q if length[q] == length[p] + 1 else split(p, tok, q)
                last = cur
            mass[last] += reward
    # A string's end positions are those of its own state and of every state
    # whose suffix link chain passes through it; longer states come first.
    for v in sorted(range(1, len(length)), key=length.__getitem__, reverse=True):
        mass[link[v]] += mass[v]
    # Most states have at most one transition, which is their best one. A
    # branching state other than the root keeps its other transitions in CSR
    # order, ascending by token; extra[v + 1] counts them, so the running
    # sum is `off`.
    best = list(map(next, map(iter, nxt), repeat(-1)))
    best[0] = -1
    extra = [0] * (len(nxt) + 1)
    etok: list[int] = []
    eto: list[int] = []
    for v in [v for v, t in enumerate(nxt) if v and len(t) > 1]:
        t = nxt[v]
        toks = sorted(t)
        tos = list(map(t.__getitem__, toks))
        masses = list(map(mass.__getitem__, tos))
        # The first maximum in token order: ties go to the smallest token.
        i = masses.index(max(masses))
        best[v] = toks.pop(i)
        del tos[i]
        etok += toks
        eto += tos
        extra[v + 1] = len(toks)
    best_to = list(map(dict.get, nxt, best, repeat(-1)))
    return SuffixTree(prompt_id, epoch, nxt[0], _column("d", mass), _column("i", best),
                      _column("i", best_to), _column("i", list(accumulate(extra))),
                      _column("i", etok), _column("i", eto), total_tokens)


def _column(typecode: str, values: list) -> array:
    # array(typecode, values) parses each item with a format string; packing
    # the same C values with struct first takes about half the time (a
    # Struct of its own, as struct.pack would cache every length's format).
    # An array made from bytes over-allocates by about 6%; its slice copy
    # holds exactly `itemsize * len` bytes.
    packed = struct.Struct(f"{len(values)}{typecode}").pack(*values)
    return array(typecode, packed)[:]


@dataclass
class MemoryStats:
    prompt_count: int
    total_nodes: int
    total_tokens: int
    index_bytes: int  # the packed columns of every index, see SuffixTree.index_bytes


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
                           sum(t.total_tokens for t in trees),
                           sum(t.index_bytes for t in trees))
