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

The suffix links and lengths serve :meth:`SuffixTree.match_lengths`, which
walks a whole response through the index once and reports, at every
position, the longest suffix so far that occurs in the history: the matching
statistics of Chang and Lawler (1994). A replay reads from them where a
lookup prefix occurs, and asks for a draft only there.

An index is built once and never changed. It keeps the lists its build
makes, one transition dict per state, 400 to 500 bytes per indexed token
on the benchmark traces (`SuffixTree.index_bytes`), and is not packed any
smaller: the simulator builds each index for one (step, prompt) unit,
replays that unit's responses against it and drops it before building the
next, so at most one index is alive at a time and packing would only add
to every build.
"""

from __future__ import annotations

import math
import struct
import sys
from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain
from typing import NamedTuple


# Token ids are stored as C ints.
MAX_TOKEN = 2**31 - 1


@dataclass
class Response:
    """One rollout sample: a token sequence with its scalar reward.

    `tokens` is one `array('i')`, 4 bytes per token, from the moment a
    response is read or generated: a list would hold a 28-byte int object
    per token id above 256 besides its 8-byte pointer. Any other sequence of
    ints is converted; an `array('i')` is kept as it is, uncopied. A token
    that is not an int raises TypeError, and a token id outside
    [0, MAX_TOKEN] ValueError.
    """

    prompt_id: str
    epoch: int
    tokens: array
    reward: float

    def __post_init__(self):
        if not (isinstance(self.tokens, array) and self.tokens.typecode == "i"):
            self.tokens = _token_column(self.tokens)

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
    """Generalized suffix automaton over one prompt's responses of one epoch.

    State 0 is the empty string. Four lists have one entry per state:
    `nxt[v]` maps each token that follows the strings of `v` to the state of
    the extended strings, `mass[v]` is the reward mass of their end
    positions, `length[v]` is the length of the longest string in `v`, and
    `link[v]` is the state of its longest suffix that lies in another state
    (-1 for the root). The name is the one the index has always had.
    """

    __slots__ = ("prompt_id", "epoch", "total_tokens", "nxt", "link", "length", "mass")

    def __init__(self, prompt_id: str, epoch: int, nxt: list[dict[int, int]], link: list[int],
                 length: list[int], mass: list[float], total_tokens: int):
        self.prompt_id = prompt_id
        self.epoch = epoch
        self.nxt = nxt
        self.link = link
        self.length = length
        self.mass = mass
        self.total_tokens = total_tokens

    @property
    def node_count(self) -> int:
        return len(self.mass)

    @property
    def index_bytes(self) -> int:
        """Bytes held by the index: its lists and dicts, and each object they
        hold counted once: the masses and the ints above 256 (CPython caches
        the smaller ones). States and token ids are shared between the lists
        and dicts that name them."""
        nxt = self.nxt
        items = chain(self.mass, self.link, self.length, *map(dict.keys, nxt),
                      *map(dict.values, nxt))
        held = {id(x): x for x in items if type(x) is float or x > 256}
        return (sum(map(sys.getsizeof, (nxt, self.link, self.length, self.mass)))
                + sum(map(sys.getsizeof, nxt)) + sum(map(sys.getsizeof, held.values())))

    def match_prefix(self, prefix: Sequence[int]) -> Cursor | None:
        """Walk `prefix` from state 0; None when it occurs in no response."""
        if not prefix:
            raise ValueError("prefix must be non-empty")
        nxt = self.nxt
        v = 0
        for tok in prefix:
            v = nxt[v].get(tok)
            if v is None:
                return None
        return Cursor(v, self.mass[v])

    def extract_draft(self, prefix: Sequence[int], window: int) -> DraftResult:
        """Greedy max-mass continuation of `prefix`, up to `window` tokens.

        Each draft token is the transition whose target has the largest
        mass; ties between equal-mass continuations go to the smallest token.
        A replay makes this lookup at every iteration whose prefix occurs, so
        it walks the prefix with :meth:`match_prefix` inlined.
        """
        if window < 1:
            raise ValueError("window must be >= 1")
        if not prefix:
            raise ValueError("prefix must be non-empty")
        nxt, mass = self.nxt, self.mass
        v = 0
        for tok in prefix:
            v = nxt[v].get(tok)
            if v is None:
                return DraftResult([], False)
        out: list[int] = []
        for _ in range(window):
            t = nxt[v]
            if len(t) == 1:
                tok, = t
                v = t[tok]
            elif t:
                # The first maximum in token order.
                tok = max(sorted(t), key=lambda k: mass[t[k]])
                v = t[tok]
            else:
                break
            out.append(tok)
        return DraftResult(out, True)

    def match_lengths(self, tokens: Sequence[int]) -> list[int]:
        """Matching statistics of `tokens` against the index (Chang and
        Lawler, 1994): `out[p]` is the length of the longest suffix of
        `tokens[:p + 1]` that occurs in some indexed response.

        One walk carries the state of that suffix along `tokens`. A token the
        state cannot follow takes the suffix link, to the longest shorter
        suffix in another state, until one can or the root is reached; the
        walk is linear in `len(tokens)`.
        """
        nxt, link, length = self.nxt, self.link, self.length
        out: list[int] = []
        v = m = 0
        for tok in tokens:
            u = nxt[v].get(tok)
            while u is None and v:
                v = link[v]
                m = length[v]
                u = nxt[v].get(tok)
            if u is not None:
                v = u
                m += 1
            out.append(m)
        return out


def build_tree(prompt_id: str, epoch: int, responses: list[Response]) -> SuffixTree:
    """Build the suffix index for one prompt's epoch of responses.

    An empty response list yields the index of the empty string alone. NaN
    rewards, empty token lists, token ids outside [0, MAX_TOKEN] and
    mismatched prompt ids are rejected.
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
        if min(resp.tokens) < 0:
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
    return SuffixTree(prompt_id, epoch, nxt, link, length, mass, total_tokens)


def _token_column(values) -> array:
    # The sign check compares the caller's own int objects; scanning the
    # array instead would make an int object per token.
    if len(values) and min(values) < 0:
        raise ValueError(f"token ids must be in [0, {MAX_TOKEN}]")
    # array("i", values) parses each item with a format string; packing the
    # same C ints with struct first takes about half the time (a Struct of
    # its own, as struct.pack would cache every length's format). An array
    # made from bytes over-allocates by about 6%; its slice copy holds
    # exactly 4 bytes per token.
    try:
        return array("i", struct.Struct(f"{len(values)}i").pack(*values))[:]
    except struct.error:
        pass
    # struct raises the same error for a token that is not an int and for
    # one above MAX_TOKEN; array() tells them apart.
    try:
        return array("i", values)
    except OverflowError:
        raise ValueError(f"token ids must be in [0, {MAX_TOKEN}]") from None
