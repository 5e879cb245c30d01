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
import json
import math

from rhymesim.events import check_record


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


def state_mass(tree, pattern: list[int]) -> float | None:
    """The mass of the state `pattern` reaches in `tree`, walked from state 0
    over `tree.nxt` and read from `tree.mass`; None when it occurs nowhere.
    The index's side of a `subtree_mass` comparison."""
    v = 0
    for tok in pattern:
        v = tree.nxt[v].get(tok)
        if v is None:
            return None
    return tree.mass[v]


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

# The engine's settings, written out here rather than read from the code
# under test.
WINDOW_INIT, WINDOW_ADD, WINDOW_MAX = 2, 2, 32
PREFIX_INIT, PREFIX_MIN = 7, 3


def sliced_replay(truth: list[int], tree):
    """Replay `truth` by re-slicing its lookup prefix at every iteration.

    Past the warm-up, each iteration slices the last `prefix_len` tokens of
    the truth and asks `tree.extract_draft` for a draft of up to `window`
    tokens. A draft lands its longest prefix that agrees with the truth plus
    one bonus token (none past the end). The window grows by `WINDOW_ADD`
    (capped at `WINDOW_MAX`) on a fully accepted draft and resets to
    `WINDOW_INIT` otherwise. The prefix resets to `PREFIX_INIT` when it
    occurs and shrinks by one (floored at `PREFIX_MIN`) when it does not.

    Returns (tokens_per_iter, drafted, accepted, verify_passes, lookups),
    `lookups` holding one (prefix, window, draft) per `extract_draft` call.
    """
    truth = list(truth)
    n = len(truth)
    per_iter: list[int] = []
    lookups = []
    drafted = accepted = verify_passes = 0
    pos = 0
    window = WINDOW_INIT
    prefix_len = PREFIX_INIT
    while pos < n:
        if pos < prefix_len:
            pos += 1
            per_iter.append(1)
            continue
        prefix = truth[pos - prefix_len : pos]
        result = tree.extract_draft(prefix, window)
        draft = list(result.tokens)
        lookups.append((prefix, window, draft))
        prefix_len = PREFIX_INIT if result.found else max(prefix_len - 1, PREFIX_MIN)
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
            window = min(window + WINDOW_ADD, WINDOW_MAX)
        else:
            window = WINDOW_INIT
    return per_iter, drafted, accepted, verify_passes, lookups


# -- AIMD oracle -------------------------------------------------------------


def window_after(history: list[bool]) -> int:
    """Closed form: min(WINDOW_INIT + WINDOW_ADD * trailing_full_accept_streak,
    WINDOW_MAX)."""
    streak = 0
    for accepted in reversed(history):
        if not accepted:
            break
        streak += 1
    return min(WINDOW_INIT + WINDOW_ADD * streak, WINDOW_MAX)


# -- allocation plan oracle ---------------------------------------------------


def exhaustive_best_gradient(
    n_groups: int,
    wks: int,
    t0: float,
    tau,
    max_wks: int,
    d_cap: float | None = None,
) -> float | None:
    """Smallest feasible finish-time gradient over all assignments of 1 to
    `max_wks` workers to each group.

    A plan (k_0..k_{N-1}) with sum <= wks achieves gradient d iff
    tau(i, k_i) <= t0 + i*d for all i. The planner under test only
    searches d in [0, d_cap] (the published search interval), so plans whose
    minimum achievable gradient exceeds the cap do not count. Returns None
    when nothing is feasible in that domain.
    """
    n = n_groups
    best: float | None = None
    for plan in itertools.product(range(1, max_wks + 1), repeat=n):
        if sum(plan) > wks:
            continue
        if tau(0, plan[0]) > t0 + 1e-12:
            continue
        need = 0.0
        for i in range(1, n):
            need = max(need, (tau(i, plan[i]) - t0) / i)
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


def _tokens_done(profile: list[int] | None, iterations: int) -> int:
    return iterations if not iterations or profile is None else profile[iterations - 1]


def iteration_worker(tasks: dict, ops: list, t_iter, prefill_per_token: int):
    """Finish ticks and observed progress of one rollout worker, advanced one
    whole iteration at a time, in integer ticks.

    `tasks` maps a sid to (total_iters, profile), `profile` being cumulative
    tokens per iteration or None for one token per iteration. `ops` is a
    tick-ordered list of (tick, kind, sid):
      - "join" queues a task that is not on the worker and not finished. A
        task that left earlier keeps its progress and first spends
        prefill_per_token ticks per generated token on prefill.
      - "detach" makes a task of the batch that never left leave it, at the
        next boundary, unless it finishes there.
      - "check" (sid None) reads every task of the batch that never left and
        does not finish at the next boundary, as it would be there.
    Other ops are skipped. The batch changes only at boundaries, each
    iteration taking t_iter(batch) ticks; a queued task enters at the first
    boundary at or after its prefill ends, or then if the batch is empty.

    Returns (finishes, observed): sid -> finish tick, and one (tick, kind,
    sid, tokens) per detach and per task a check reads, in op order and by
    sid within a check.
    """
    batch: dict[str, int] = {}    # sid -> iterations done
    queued: dict[str, int] = {}   # sid -> tick its prefill ends
    leaving: set[str] = set()
    kept: dict[str, int] = {}     # sid -> iterations done when it left
    finishes: dict[str, int] = {}
    observed = []
    now = 0  # the last boundary

    def boundary() -> None:
        for s in leaving:
            kept[s] = batch.pop(s)
        leaving.clear()
        for s in sorted(queued):
            if queued[s] <= now:
                batch[s] = kept.get(s, 0)
                del queued[s]
        for s in sorted(batch):
            if batch[s] == tasks[s][0]:
                finishes[s] = now
                del batch[s]

    for tick, kind, sid in list(ops) + [(math.inf, "end", None)]:
        while batch or queued:
            nxt = now + t_iter(len(batch)) if batch else min(queued.values())
            if nxt > tick:
                break
            for s in batch:
                batch[s] += 1
            now = nxt
            boundary()
        if kind == "end":
            break
        # The iterations each task of the batch has done at the next boundary.
        ahead = 0 if tick == now else 1
        if kind == "join" and sid not in batch and sid not in queued and sid not in finishes:
            queued[sid] = tick + _tokens_done(tasks[sid][1], kept.get(sid, 0)) * prefill_per_token
            if batch and queued[sid] == now:  # ready at a boundary: it enters there
                boundary()
        elif kind == "detach" and sid in batch and sid not in leaving and sid not in kept:
            total, profile = tasks[sid]
            if batch[sid] + ahead < total:
                observed.append((tick, kind, sid, _tokens_done(profile, batch[sid] + ahead)))
                leaving.add(sid)
                if not ahead:
                    boundary()
        elif kind == "check":
            for s in sorted(batch):
                total, profile = tasks[s]
                if s not in leaving and s not in kept and batch[s] + ahead < total:
                    observed.append((tick, kind, s, _tokens_done(profile, batch[s] + ahead)))
    return finishes, observed


# -- event log oracle ----------------------------------------------------------


def keys_sorted(value) -> bool:
    """True when every dict within `value`, at any depth, iterates its keys
    in sorted order."""
    if isinstance(value, dict):
        return list(value) == sorted(value) and all(map(keys_sorted, value.values()))
    if isinstance(value, list):
        return all(map(keys_sorted, value))
    return True


def check_event_records(result) -> None:
    """Every record of a run's log is canonical as built: it has exactly the
    fields `events.EVENTS` gives its kind, each of a type the table accepts
    (`check_record`), its keys are in sorted order at every level, its
    `events_jsonl` line is what `json.dumps(record, sort_keys=True)` writes,
    and that line reads back as the same record."""
    lines = result.events_jsonl().splitlines()
    assert len(lines) == len(result.events)
    for record, line in zip(result.events, lines):
        check_record(record)
        assert keys_sorted(record), record
        assert line == json.dumps(record, sort_keys=True)
        assert json.loads(line) == record
