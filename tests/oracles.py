"""Independent brute-force oracles used by the test suite.

Everything here deliberately avoids the library's data structures: plain
scans over raw token lists, exhaustive enumeration over small plan spaces,
and closed-form recurrences. Expected values frozen into tests come from
these functions, never from the code under test.

Token sequences are copied to lists where they enter: a slice of the
`array('i')` a `Response` holds never equals a list, so a scan comparing the
two would find nothing and every check over what it found would pass.
"""

from __future__ import annotations

import itertools
import math


# -- suffix index oracles ----------------------------------------------------


def _lists(corpus) -> list[tuple[list[int], float]]:
    return [(list(tokens), reward) for tokens, reward in corpus]


def occurrences(tokens: list[int], pattern: list[int]) -> int:
    """Number of (possibly overlapping) occurrences of `pattern`."""
    tokens, pattern = list(tokens), list(pattern)
    if not pattern or len(pattern) > len(tokens):
        return 0
    m = len(pattern)
    return sum(1 for i in range(len(tokens) - m + 1) if tokens[i : i + m] == pattern)


def prefix_occurs(corpus: list[tuple[list[int], float]], prefix: list[int]) -> bool:
    return _occurs(_lists(corpus), list(prefix))


def _occurs(corpus: list[tuple[list[int], float]], prefix: list[int]) -> bool:
    m = len(prefix)
    return any(tokens[i : i + m] == prefix
               for tokens, _ in corpus for i in range(len(tokens) - m + 1))


def match_lengths(corpus: list[tuple[list[int], float]], tokens: list[int]) -> list[int]:
    """For each position p, the length of the longest suffix of
    `tokens[:p + 1]` that occurs in some response, found by trying the
    suffixes from the longest down. A suffix that occurs drops its last token
    to one that occurs at p - 1, so none is longer than the one found there
    plus one, and the search starts at that length."""
    corpus, tokens = _lists(corpus), list(tokens)
    out = []
    m = 0
    for end in range(1, len(tokens) + 1):
        longest_first = range(m + 1, 0, -1)
        m = next((k for k in longest_first if _occurs(corpus, tokens[end - k : end])), 0)
        out.append(m)
    return out


def subtree_mass(corpus: list[tuple[list[int], float]], pattern: list[int]) -> float:
    """Total reward mass of suffixes that start with `pattern`.

    Each occurrence of `pattern` inside a response marks one suffix of that
    response starting with it, and every suffix carries its response's reward.
    """
    return sum(reward * occurrences(tokens, pattern) for tokens, reward in corpus)


def end_mass(corpus: list[tuple[list[int], float]], pattern: list[int]) -> float:
    """Reward mass of responses that end exactly with `pattern`."""
    pattern = list(pattern)
    m = len(pattern)
    return sum(
        reward
        for tokens, reward in _lists(corpus)
        if len(tokens) >= m and tokens[len(tokens) - m :] == pattern
    )


def end_position_classes(corpus: list[tuple[list[int], float]]) -> int:
    """Number of distinct end-position sets over the non-empty substrings.

    Two substrings are equivalent when they end at exactly the same
    (response, position) pairs; the suffix automaton has one state per
    class plus the empty string's.
    """
    ends: dict[tuple[int, ...], set[tuple[int, int]]] = {}
    for r_idx, (tokens, _) in enumerate(_lists(corpus)):
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
    corpus, prefix = _lists(corpus), list(prefix)
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


# -- speculative replay oracle ---------------------------------------------------


def sliced_replay(truth: list[int], tree, config):
    """Replay `truth` by re-slicing its lookup prefix at every iteration.

    Past the warm-up, each iteration slices the last `prefix_len` tokens of
    the truth and asks `tree.extract_draft` for a draft of up to `window`
    tokens. A draft lands its longest prefix that agrees with the truth plus
    one bonus token (none past the end). The window grows by
    `config.window_add` (capped at `window_max`) on a fully accepted draft
    and resets to `window_init` otherwise. The prefix resets to
    `prefix_init` when it occurs and shrinks by one (floored at
    `prefix_min`) when it does not.

    Returns (tokens_per_iter, drafted, accepted, verify_passes, lookups),
    `lookups` holding one (prefix, window, draft) per `extract_draft` call.
    """
    truth = list(truth)
    n = len(truth)
    per_iter: list[int] = []
    lookups = []
    drafted = accepted = verify_passes = 0
    pos = 0
    window = config.window_init
    prefix_len = config.prefix_init
    while pos < n:
        if pos < prefix_len:
            pos += 1
            per_iter.append(1)
            continue
        prefix = truth[pos - prefix_len : pos]
        result = tree.extract_draft(prefix, window)
        draft = list(result.tokens)
        lookups.append((prefix, window, draft))
        prefix_len = config.prefix_init if result.found else max(prefix_len - 1,
                                                                  config.prefix_min)
        if not draft:
            pos += 1
            per_iter.append(1)
            continue
        landed = 0
        while landed < len(draft) and pos + landed < n and draft[landed] == truth[pos + landed]:
            landed += 1
        bonus = 1 if pos + landed < n else 0
        pos += landed + bonus
        per_iter.append(landed + bonus)
        drafted += len(draft)
        accepted += landed
        verify_passes += 1
        if landed == len(draft):
            window = min(window + config.window_add, config.window_max)
        else:
            window = config.window_init
    return per_iter, drafted, accepted, verify_passes, lookups


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
    history, responses = list(map(list, history)), list(map(list, responses))
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


# -- rollout worker oracle --------------------------------------------------------


def _tokens_done(total_iters: int, profile: list[int] | None, progress: float) -> int:
    idx = min(total_iters, max(0, math.floor(progress + 1e-9)))
    if idx == 0:
        return 0
    return idx if profile is None else profile[idx - 1]


def sliced_worker(tasks: dict, ops: list, t_iter, prefill_per_token: float):
    """Finish times and observed progress of one rollout worker, advanced
    slice by slice: every in-flight task's iterations left and prefill
    seconds left are decremented over each interval between events.

    `tasks` maps a sid to (total_iters, profile), `profile` being cumulative
    tokens per iteration or None for one token per iteration. `ops` is a
    time-ordered list of (time, kind, sid):
      - "join" puts a task in flight. A task detached earlier keeps its
        progress and first spends prefill_per_token seconds per generated
        token on prefill.
      - "detach" takes a task that was never detached off the worker.
      - "check" (sid None) reads every in-flight task never detached.
    Ops a task cannot take (it is finished, in flight, or detached before)
    are skipped. Every in-flight task counts in the batch; one past its
    prefill advances 1 / t_iter(batch) iterations per second.

    Returns (finishes, observed): sid -> finish time, and one
    (time, sid, progress, tokens) per detach and per task a check reads, in
    op order and by sid within a check.
    """
    remaining: dict[str, float] = {}     # in flight: iterations left
    prefill_left: dict[str, float] = {}  # in flight: prefill seconds left
    kept: dict[str, float] = {}          # detached: iterations done
    finishes: dict[str, float] = {}
    observed = []

    def advance(elapsed: float) -> None:
        if elapsed > 0 and remaining:
            rate = t_iter(len(remaining))
            for s in remaining:
                used = min(prefill_left[s], elapsed)
                prefill_left[s] -= used
                remaining[s] -= (elapsed - used) / rate

    now = 0.0
    for time, kind, sid in list(ops) + [(math.inf, "end", None)]:
        while remaining:
            rate = t_iter(len(remaining))
            to = now + min(prefill_left[s] + max(0.0, remaining[s]) * rate for s in remaining)
            if to > time:
                break
            advance(to - now)
            now = to
            for s in sorted(remaining):
                if remaining[s] <= 1e-9 and prefill_left[s] <= 1e-9:
                    del remaining[s], prefill_left[s]
                    finishes[s] = now
        if math.isinf(time):
            break
        advance(time - now)
        now = time
        total, profile = tasks.get(sid, (0, None))
        if kind == "join" and sid not in remaining and sid not in finishes:
            progress = kept.get(sid, 0.0)
            remaining[sid] = total - progress
            prefill_left[sid] = _tokens_done(total, profile, progress) * prefill_per_token
        elif kind == "detach" and sid in remaining and sid not in kept:
            progress = total - remaining.pop(sid)
            del prefill_left[sid]
            kept[sid] = progress
            observed.append((time, sid, progress, _tokens_done(total, profile, progress)))
        elif kind == "check":
            for s in sorted(remaining):
                if s not in kept:
                    progress = tasks[s][0] - remaining[s]
                    observed.append((time, s, progress, _tokens_done(*tasks[s], progress)))
    return finishes, observed
