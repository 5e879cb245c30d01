"""Independent brute-force oracles used by the test suite.

Everything here deliberately avoids the library's data structures: plain
scans over raw token lists, exhaustive enumeration over small plan spaces,
and closed-form recurrences. Expected values frozen into tests come from
these functions, never from the code under test.
"""

from __future__ import annotations

import itertools
import math


# -- suffix index oracles ----------------------------------------------------


def occurrences(tokens: list[int], pattern: list[int]) -> int:
    """Number of (possibly overlapping) occurrences of `pattern`."""
    if not pattern or len(pattern) > len(tokens):
        return 0
    m = len(pattern)
    return sum(1 for i in range(len(tokens) - m + 1) if tokens[i : i + m] == pattern)


def prefix_occurs(corpus: list[tuple[list[int], float]], prefix: list[int]) -> bool:
    return any(occurrences(tokens, prefix) > 0 for tokens, _ in corpus)


def subtree_mass(corpus: list[tuple[list[int], float]], pattern: list[int]) -> float:
    """Total reward mass of suffixes that start with `pattern`.

    Each occurrence of `pattern` inside a response marks one suffix of that
    response starting with it, and every suffix carries its response's reward.
    """
    return sum(reward * occurrences(tokens, pattern) for tokens, reward in corpus)


def end_mass(corpus: list[tuple[list[int], float]], pattern: list[int]) -> float:
    """Reward mass of responses that end exactly with `pattern`."""
    m = len(pattern)
    return sum(
        reward
        for tokens, reward in corpus
        if len(tokens) >= m and tokens[len(tokens) - m :] == pattern
    )


def end_position_classes(corpus: list[tuple[list[int], float]]) -> int:
    """Number of distinct end-position sets over the non-empty substrings.

    Two substrings are equivalent when they end at exactly the same
    (response, position) pairs; the suffix automaton has one state per
    class plus the empty string's.
    """
    ends: dict[tuple[int, ...], set[tuple[int, int]]] = {}
    for r_idx, (tokens, _) in enumerate(corpus):
        for end in range(1, len(tokens) + 1):
            for start in range(end):
                ends.setdefault(tuple(tokens[start:end]), set()).add((r_idx, end))
    return len({frozenset(e) for e in ends.values()})


def greedy_draft(
    corpus: list[tuple[list[int], float]], prefix: list[int], window: int
) -> list[int]:
    """Greedy max-priority continuation of `prefix`, scanning raw responses.

    At each step the candidate continuations are the tokens following the
    live occurrences of the pattern so far; each candidate is weighted by
    the reward mass of suffixes extending through it (ties: smallest token
    id). Occurrences are tracked incrementally, which changes nothing
    semantically versus rescanning the corpus with the grown pattern.
    """
    m = len(prefix)
    live: list[tuple[int, int]] = []  # (response index, position after match)
    for r_idx, (tokens, _) in enumerate(corpus):
        for i in range(len(tokens) - m + 1):
            if tokens[i : i + m] == prefix:
                live.append((r_idx, i + m))
    if not live:
        return []
    out: list[int] = []
    while len(out) < window:
        masses: dict[int, float] = {}
        for r_idx, pos in live:
            tokens, reward = corpus[r_idx]
            if pos < len(tokens):
                nxt = tokens[pos]
                masses[nxt] = masses.get(nxt, 0.0) + reward
        if not masses:
            break
        best = max(masses.items(), key=lambda kv: (kv[1], -kv[0]))[0]
        out.append(best)
        live = [(r, p + 1) for r, p in live if p < len(corpus[r][0]) and corpus[r][0][p] == best]
    return out


# -- AIMD oracle -------------------------------------------------------------


def window_after(history: list[bool], init: int = 2, step: int = 2, cap: int = 32) -> int:
    """Closed form: min(init + step * trailing_full_accept_streak, cap)."""
    streak = 0
    for accepted in reversed(history):
        if not accepted:
            break
        streak += 1
    return min(init + step * streak, cap)


# -- allocation plan oracle ---------------------------------------------------


def exhaustive_best_gradient(
    lens: list[float],
    wks: int,
    t0: float,
    tau,
    min_wks: int,
    max_wks: int,
    d_cap: float | None = None,
) -> float | None:
    """Smallest feasible finish-time gradient over all worker assignments.

    A plan (k_0..k_{N-1}) with sum <= wks achieves gradient d iff
    tau(lens[i], k_i) <= t0 + i*d for all i. The planner under test only
    searches d in [0, d_cap] (the published search interval), so plans whose
    minimum achievable gradient exceeds the cap do not count. Returns None
    when nothing is feasible in that domain.
    """
    n = len(lens)
    best: float | None = None
    for plan in itertools.product(range(min_wks, max_wks + 1), repeat=n):
        if sum(plan) > wks:
            continue
        if tau(lens[0], plan[0]) > t0 + 1e-12:
            continue
        need = 0.0
        for i in range(1, n):
            need = max(need, (tau(lens[i], plan[i]) - t0) / i)
        need = max(need, 0.0)
        if d_cap is not None and need > d_cap + 1e-12:
            continue
        if best is None or need < best:
            best = need
    return best


# -- percentile oracle --------------------------------------------------------


def nearest_rank_percentile(values: list[float], pct: float) -> float:
    ordered = sorted(values)
    rank = math.ceil(pct / 100.0 * len(ordered))
    return ordered[max(rank, 1) - 1]


# -- random instances ----------------------------------------------------------


def random_monotone_table(rng, lens, max_wks):
    """Random tau table, non-increasing in workers and non-decreasing in length."""
    table = {}
    prev_row = None
    for l in lens:
        t = rng.uniform(1.0, 20.0)
        row = []
        for _ in range(max_wks):
            row.append(t)
            t *= rng.uniform(0.5, 0.95)
        if prev_row is not None:
            bump = rng.uniform(0.0, 2.0)
            row = [max(a, b + bump) for a, b in zip(row, prev_row)]
        prev_row = row
        for k in range(1, max_wks + 1):
            table[(l, k)] = row[k - 1]
    return table


# -- token-similarity replay oracle ---------------------------------------------


def longest_continuation_replay(
    history: list[list[int]], responses: list[list[int]], prefix_len: int
) -> tuple[int, int, int]:
    """(accepted, total, warmup) of replaying `responses` against `history`.

    From position `prefix_len` on, every occurrence of the last `prefix_len`
    tokens in every history response is scanned, and the longest continuation
    it shares with the rest of the response is accepted in one jump; with no
    shared continuation one token is decoded. No index: plain scans only.
    """
    accepted = total = warmup = 0
    for tokens in responses:
        total += len(tokens)
        warmup += min(prefix_len, len(tokens))
        pos = prefix_len
        while pos < len(tokens):
            prefix = tokens[pos - prefix_len : pos]
            best = 0
            for hist in history:
                for i in range(len(hist) - prefix_len + 1):
                    if hist[i : i + prefix_len] != prefix:
                        continue
                    run = 0
                    while (pos + run < len(tokens) and i + prefix_len + run < len(hist)
                           and hist[i + prefix_len + run] == tokens[pos + run]):
                        run += 1
                    best = max(best, run)
            accepted += best
            pos += max(best, 1)
    return accepted, total, warmup
