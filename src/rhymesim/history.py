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
token's target (4 each), its suffix link and the length of its longest
string (4 each) and a CSR offset (4). Only branching states, 3-9% of them on
the benchmark traces, have transitions besides the best one, stored as
(token, target) pairs of C ints. On the benchmark's epoch-2 indexes the
packed index holds about 67 bytes per indexed token at cross-epoch
similarity 0.9 and 83 at 0.3, against 447 and 357 with every dict kept;
`SuffixTree.index_bytes` reports it.

The suffix links and lengths serve :meth:`SuffixTree.match_lengths`, which
walks a whole response through the index once and reports, at every
position, the longest suffix so far that occurs in the history: the matching
statistics of Chang and Lawler (1994). A replay reads from them where a
lookup prefix occurs, and asks for a draft only there.

An index is built once and never changed. A caller that drafts over several
epochs keeps a plain `dict` from prompt id to its latest index and updates it
with each epoch's :func:`build_tree` results.
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
    """Draft tokens extracted for a prefix. `found` tells whether the prefix
    occurs in the index at all; the tokens are empty when it does not, and
    also when every occurrence ends a response."""

    tokens: list[int]
    found: bool


class Cursor(NamedTuple):
    """A matched prefix: the automaton state it reaches and that state's
    reward mass."""

    state: int
    priority: float


class SuffixTree:
    """Generalized suffix automaton over one prompt's responses of one epoch,
    packed into flat columns once :func:`build_tree` has built it.

    State 0 is the empty string. Its transitions, one per distinct token,
    are the dict `root`, since every lookup starts there. Six columns have
    one entry per state: `mass[v]` is the reward mass of the end positions
    of the strings in `v`, `best[v]` is the draft's next token out of `v`
    (-1 when the strings of `v` are never followed by a token, and for the
    root), `best_to[v]` is the state that token leads to (-1 with it),
    `length[v]` is the length of the longest string in `v`, `link[v]` is the
    state of its longest suffix that lies in another state (-1 for the
    root), and `off` is a CSR offset (one more entry than states). The other
    transitions of a branching state are `etok[off[v]:off[v + 1]]` (tokens,
    ascending) leading to the states at the same positions of `eto`.
    :meth:`step` follows any token and :meth:`match_lengths` walks a whole
    sequence, so no caller needs the layout. The name is the one the index
    has always had.
    """

    __slots__ = ("prompt_id", "epoch", "total_tokens", "root", "mass", "best", "best_to",
                 "link", "length", "off", "etok", "eto")

    def __init__(self, prompt_id: str, epoch: int, root: dict[int, int], mass: array,
                 best: array, best_to: array, link: array, length: array, off: array,
                 etok: array, eto: array, total_tokens: int):
        self.prompt_id = prompt_id
        self.epoch = epoch
        self.root = root
        self.mass = mass
        self.best = best
        self.best_to = best_to
        self.link = link
        self.length = length
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
        columns = (self.mass, self.best, self.best_to, self.link, self.length, self.off,
                   self.etok, self.eto)
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

        Ties between equal-mass continuations go to the smallest token. A
        replay makes this lookup at every iteration whose prefix occurs, so
        it walks the prefix with :meth:`step` inlined.
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
            return DraftResult([], False)
        out: list[int] = []
        for _ in range(window):
            tok = best[v]
            if tok < 0:
                break
            out.append(tok)
            v = best_to[v]
        return DraftResult(out, True)

    def match_lengths(self, tokens: list[int]) -> list[int]:
        """Matching statistics of `tokens` against the index (Chang and
        Lawler, 1994): `out[p]` is the length of the longest suffix of
        `tokens[:p + 1]` that occurs in some indexed response.

        One walk carries the state of that suffix along `tokens`. A token the
        state cannot follow takes the suffix link, to the longest shorter
        suffix in another state, until one can or the root is reached; the
        walk is linear in `len(tokens)`. :meth:`step` is inlined.
        """
        root, best, best_to, off, etok, eto = (self.root, self.best, self.best_to, self.off,
                                               self.etok, self.eto)
        link, length = self.link, self.length
        out: list[int] = []
        v = m = 0
        for tok in tokens:
            while v:
                if best[v] == tok:
                    v = best_to[v]
                    m += 1
                    break
                lo, hi = off[v], off[v + 1]
                if lo < hi:
                    j = bisect_left(etok, tok, lo, hi)
                    if j < hi and etok[j] == tok:
                        v = eto[j]
                        m += 1
                        break
                v = link[v]
                m = length[v]
            else:
                v = root.get(tok, 0)
                m = 1 if v else 0
            out.append(m)
        return out


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
                      _column("i", best_to), _column("i", link), _column("i", length),
                      _column("i", list(accumulate(extra))), _column("i", etok),
                      _column("i", eto), total_tokens)


def _column(typecode: str, values: list) -> array:
    # array(typecode, values) parses each item with a format string; packing
    # the same C values with struct first takes about half the time (a
    # Struct of its own, as struct.pack would cache every length's format).
    # An array made from bytes over-allocates by about 6%; its slice copy
    # holds exactly `itemsize * len` bytes.
    packed = struct.Struct(f"{len(values)}{typecode}").pack(*values)
    return array(typecode, packed)[:]
