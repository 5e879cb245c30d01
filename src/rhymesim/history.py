"""Per-prompt suffix indexes over historical rollout responses.

Each prompt gets a generalized suffix tree over its previous-epoch responses.
Every suffix of every response ends at a leaf (a shared terminal symbol closes
each response), and a leaf accumulates the rewards of all responses that end
with that suffix. Interior node priorities are the sums of their children, so
greedy max-priority descent prefers continuations drawn from high-reward
responses. Construction is amortized linear (Ukkonen) in the total token
count, and the compressed tree never exceeds 2n+1 nodes for n indexed tokens.

A :class:`HistoryStore` holds one immutable tree per prompt (latest ingested
epoch only). It builds a replacement tree on the caller's thread and swaps it
in once complete, so readers always see a whole tree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

DEFAULT_VOCAB_SIZE = 32768

# Shared end-of-response marker. It is not a real token id, so it can never
# collide with query prefixes, and it only ever appears as the last symbol of
# an indexed sequence (terminal edges always have length 1 and are leaves).
TERMINAL = None


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


class Node:
    """Suffix tree node; the edge into the node is seq[start:end] of `seq_id`.

    `end == -1` marks a leaf edge running to the end of its sequence (the
    usual Ukkonen open edge; sequences are immutable once their pass ends).
    """

    __slots__ = ("seq_id", "start", "end", "children", "suffix_link", "priority")

    def __init__(self, seq_id: int, start: int, end: int):
        self.seq_id = seq_id
        self.start = start
        self.end = end
        self.children: dict = {}
        self.suffix_link: Node | None = None
        self.priority = 0.0

    def is_leaf(self) -> bool:
        return not self.children


@dataclass
class Cursor:
    """Position in a tree spelling a matched prefix.

    `offset` counts symbols consumed on the edge into `node`; when it equals
    the edge length the cursor sits on the node itself.
    """

    tree: "SuffixTree"
    node: Node
    offset: int

    @property
    def priority(self) -> float:
        """Priority of the subtree below the matched position."""
        return self.node.priority


class SuffixTree:
    """Generalized suffix tree over one prompt's responses of one epoch."""

    def __init__(self, prompt_id: str, epoch: int):
        self.prompt_id = prompt_id
        self.epoch = epoch
        self.root = Node(-1, 0, 0)
        self.total_tokens = 0
        self.node_count = 1
        self.total_reward = 0.0
        self._seqs: list[list] = []
        # Ukkonen state, only meaningful while a sequence is being added.
        self._active_node = self.root
        self._active_edge_pos = 0
        self._active_len = 0
        self._cur_seq = -1
        self._cur_pos = -1

    # -- construction ------------------------------------------------------

    def _new_node(self, seq_id: int, start: int, end: int) -> Node:
        self.node_count += 1
        return Node(seq_id, start, end)

    def edge_length(self, node: Node) -> int:
        if node.end >= 0:
            return node.end - node.start
        if node.seq_id == self._cur_seq:
            return self._cur_pos + 1 - node.start
        return len(self._seqs[node.seq_id]) - node.start

    def _edge_symbol(self, node: Node, offset: int):
        return self._seqs[node.seq_id][node.start + offset]

    def add_response(self, tokens: list[int], reward: float) -> None:
        """Index every suffix of `tokens`, crediting `reward` to its leaf."""
        if not tokens:
            raise ValueError("cannot index an empty response")
        if not math.isfinite(reward):
            raise ValueError(f"reward must be finite, got {reward!r}")
        seq = list(tokens)
        seq.append(TERMINAL)
        sid = len(self._seqs)
        self._seqs.append(seq)
        self.total_tokens += len(tokens)
        self.total_reward += reward

        self._active_node = self.root
        self._active_edge_pos = 0
        self._active_len = 0
        self._cur_seq = sid
        remaining = 0

        for pos in range(len(seq)):
            self._cur_pos = pos
            sym = seq[pos]
            remaining += 1
            last_internal: Node | None = None
            while remaining > 0:
                if sym is TERMINAL and remaining == 1 and self._active_len == 0:
                    # The empty suffix is not indexed; drop it.
                    remaining = 0
                    break
                if self._active_len == 0:
                    self._active_edge_pos = pos
                edge_first = seq[self._active_edge_pos]
                child = self._active_node.children.get(edge_first)
                if child is None:
                    leaf = self._new_node(sid, pos, -1)
                    leaf.priority += reward
                    self._active_node.children[edge_first] = leaf
                    if last_internal is not None:
                        last_internal.suffix_link = self._active_node
                        last_internal = None
                else:
                    el = self.edge_length(child)
                    if self._active_len >= el:
                        # Skip/count walk-down, then retry this extension.
                        self._active_node = child
                        self._active_edge_pos += el
                        self._active_len -= el
                        continue
                    if self._edge_symbol(child, self._active_len) == sym:
                        # The suffix is already present (rule 3).
                        if last_internal is not None and self._active_node is not self.root:
                            last_internal.suffix_link = self._active_node
                            last_internal = None
                        if sym is TERMINAL:
                            # Every remaining non-empty suffix already ends at
                            # an existing terminal leaf shared with an earlier
                            # response; credit each of them.
                            self._credit_shared_suffixes(seq, pos, remaining, reward)
                            remaining = 0
                            break
                        self._active_len += 1
                        break
                    # Mismatch inside the edge: split and hang a new leaf.
                    split = self._new_node(child.seq_id, child.start, child.start + self._active_len)
                    self._active_node.children[edge_first] = split
                    leaf = self._new_node(sid, pos, -1)
                    leaf.priority += reward
                    split.children[sym] = leaf
                    child.start += self._active_len
                    split.children[self._edge_symbol(child, 0)] = child
                    if last_internal is not None:
                        last_internal.suffix_link = split
                    last_internal = split
                remaining -= 1
                self._advance_suffix(pos, remaining)
        self._cur_seq = -1

    def _advance_suffix(self, pos: int, remaining: int) -> None:
        if self._active_node is self.root:
            if self._active_len > 0:
                self._active_len -= 1
                self._active_edge_pos = pos - remaining + 1
        else:
            self._active_node = self._active_node.suffix_link or self.root

    def _canonize(self, seq: list, pos: int) -> None:
        # During the credit walk the active point always spells a string
        # ending at `pos`; re-anchor the edge and walk down until the active
        # point lies within one edge.
        self._active_edge_pos = pos - self._active_len
        while self._active_len > 0:
            child = self._active_node.children[seq[self._active_edge_pos]]
            el = self.edge_length(child)
            if self._active_len < el:
                break
            self._active_node = child
            self._active_edge_pos += el
            self._active_len -= el

    def _terminal_leaf_at_active_point(self, seq: list) -> Node:
        if self._active_len == 0:
            return self._active_node.children[TERMINAL]
        child = self._active_node.children[seq[self._active_edge_pos]]
        # Terminal symbols are final, so an edge carrying one ends the edge.
        return child

    def _credit_shared_suffixes(self, seq: list, pos: int, remaining: int, reward: float) -> None:
        # Suffixes seq[j:pos+1] for j = pos-remaining+1 .. pos-1 all exist;
        # walk the active point through them via suffix links, crediting the
        # terminal leaf of each. The empty suffix (j == pos) is skipped.
        for step in range(remaining - 1):
            leaf = self._terminal_leaf_at_active_point(seq)
            leaf.priority += reward
            if step < remaining - 2:
                self._advance_suffix(pos, remaining - step - 1)
                self._canonize(seq, pos)

    def finalize(self) -> None:
        """Roll leaf rewards up the tree: every interior node becomes the sum
        of its children. Iterative post-order; paths can be response-length
        deep."""
        stack = [(self.root, False)]
        while stack:
            node, expanded = stack.pop()
            if node.is_leaf():
                continue
            if expanded:
                node.priority = sum(c.priority for c in node.children.values())
            else:
                stack.append((node, True))
                for child in node.children.values():
                    stack.append((child, False))

    # -- queries -----------------------------------------------------------

    def match_prefix(self, prefix: list[int]) -> Cursor | None:
        """Walk `prefix` from the root; None when it occurs in no response."""
        if not prefix:
            raise ValueError("prefix must be non-empty")
        node = self.root
        offset = 0
        for sym in prefix:
            if offset == self.edge_length(node):
                nxt = node.children.get(sym)
                if nxt is None:
                    return None
                node = nxt
                offset = 1
            elif self._edge_symbol(node, offset) != sym:
                return None
            else:
                offset += 1
        return Cursor(self, node, offset)

    def extract_draft(self, prefix: list[int], window: int) -> DraftResult:
        """Greedy max-priority continuation of `prefix`, up to `window` tokens.

        Ties between equal-priority branches go to the smallest first token.
        """
        if window < 1:
            raise ValueError("window must be >= 1")
        cursor = self.match_prefix(prefix)
        if cursor is None:
            return DraftResult(tokens=[], matched_prefix_len=0, source_priority=0.0)
        out: list[int] = []
        node, offset = cursor.node, cursor.offset
        while len(out) < window:
            if offset < self.edge_length(node):
                sym = self._edge_symbol(node, offset)
                if sym is TERMINAL:
                    break
                out.append(sym)
                offset += 1
                continue
            best: Node | None = None
            best_key: tuple[float, int] | None = None
            for tok, child in node.children.items():
                if tok is TERMINAL:
                    continue
                key = (child.priority, -tok)
                if best_key is None or key > best_key:
                    best, best_key = child, key
            if best is None:
                break
            node, offset = best, 0
        return DraftResult(tokens=out, matched_prefix_len=len(prefix), source_priority=cursor.priority)


def build_tree(prompt_id: str, epoch: int, responses: list[Response]) -> SuffixTree:
    """Build the suffix index for one prompt's epoch of responses.

    An empty response list yields the root-only tree. NaN rewards, empty
    token lists, and mismatched prompt ids are rejected.
    """
    tree = SuffixTree(prompt_id, epoch)
    for resp in responses:
        if resp.prompt_id != prompt_id:
            raise ValueError(f"response prompt {resp.prompt_id!r} != tree prompt {prompt_id!r}")
        tree.add_response(resp.tokens, resp.reward)
    tree.finalize()
    return tree


@dataclass
class MemoryStats:
    prompt_count: int
    total_nodes: int
    total_tokens: int


class HistoryStore:
    """Latest-epoch suffix trees for many prompts.

    `ingest_epoch` builds the new tree completely and only then replaces the
    visible one, so `get_tree` always returns a whole, immutable snapshot.
    Re-ingesting an old or current epoch raises :class:`StaleEpochError`.
    """

    def __init__(self):
        self._trees: dict[str, SuffixTree] = {}

    def ingest_epoch(self, prompt_id: str, epoch: int, responses: list[Response]) -> None:
        """Index one prompt's epoch and make it the visible tree."""
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
