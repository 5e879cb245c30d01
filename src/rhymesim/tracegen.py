"""Synthetic multi-epoch rollout traces and the metrics computed on them.

The generator mimics the two kinds of cross-epoch stability the mechanisms
rely on without modeling an actual LLM:

* Token similarity: each epoch's responses for a prompt are mutated copies of
  one previous-epoch response (the group's member 0), copying tokens with
  probability `similarity` in geometric bursts, so identical runs are long
  even when the per-token rate is high.
* Length-rank stability: each prompt carries a latent log-length that evolves
  as an AR(1) process with correlation `rank_noise`; the marginal epoch-1
  length distribution is log-normal (long-tailed) and medians drift by a
  global per-epoch growth factor.

Rewards are Bernoulli high/low per response, which is all the reward-aware
draft index needs: within-group contrast.

Analysis entry points: each measures one observation with the mechanism
that exploits it. `rank_metrics` groups the previous epoch's prompts with the
scheduler's `build_groups` and scores how well those groups predict the next
epoch's length ranking, and `token_similarity_replay` replays each response
against its prompt's suffix index over the previous epoch (`build_tree`),
accepting the longest continuation of a fixed-size prefix.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np

from .history import MAX_TOKEN, Response, build_tree
from .scheduler import (
    BETA_FLOOR,
    build_groups,
    partition_sizes,
    prompt_stats,
    straggler_tail_size,
)


# The longest response a spec may imply, in tokens. A spec is checked at
# LENGTH_TAIL sigmas of its log-length spread (`len_sigma` across prompts plus
# `length_jitter` within a group), about a one-in-a-billion draw, so no trace
# of a spec that passes needs arrays of absurd size.
MAX_RESPONSE_LEN = 2**20
LENGTH_TAIL = 6.0


@dataclass
class TraceSpec:
    """All knobs needed to deterministically synthesize a trace."""

    num_prompts: int
    epochs: int
    group_size: int = 16
    vocab_size: int = 32768
    len_mu: float = math.log(300.0)  # log of the epoch-1 median length
    len_sigma: float = 0.8           # long-tail shape of the length distribution
    similarity: float = 0.93         # per-token copy probability between epochs
    similarity_schedule: list[float] | None = None  # optional per-epoch override
    growth_mean: float = 1.0         # per-epoch multiplier on median lengths
    rank_noise: float = 0.95         # AR(1) correlation of per-prompt log-lengths
    length_jitter: float = 0.08      # within-group log-length spread
    burst_mean: float = 4.0          # mean mutated-run length, tokens
    high_reward_frac: float = 0.5    # chance a response gets reward 1.0
    seed: int = 0

    def __post_init__(self):
        if self.num_prompts < 1 or self.epochs < 1 or self.group_size < 1:
            raise ValueError("num_prompts, epochs and group_size must be >= 1")
        if not (1 <= self.vocab_size <= MAX_TOKEN + 1):
            raise ValueError(f"vocab_size must be in [1, {MAX_TOKEN + 1}]")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        # Every test is a chained comparison, which NaN fails.
        inf = math.inf
        for key, wanted, ok in (
            ("len_mu", "finite", lambda x: -inf < x < inf),
            ("len_sigma", "finite and >= 0", lambda x: 0.0 <= x < inf),
            ("growth_mean", "finite and > 0", lambda x: 0.0 < x < inf),
            ("burst_mean", "finite and >= 1", lambda x: 1.0 <= x < inf),
            ("length_jitter", "finite and >= 0", lambda x: 0.0 <= x < inf),
            ("similarity", "in [0, 1]", lambda x: 0.0 <= x <= 1.0),
            ("rank_noise", "in [0, 1]", lambda x: 0.0 <= x <= 1.0),
            ("high_reward_frac", "in [0, 1]", lambda x: 0.0 <= x <= 1.0),
        ):
            if not ok(getattr(self, key)):
                raise ValueError(f"{key} must be {wanted}, got {getattr(self, key)}")
        schedule = self.similarity_schedule
        if schedule is not None:
            if len(schedule) != self.epochs:
                raise ValueError("similarity_schedule must have one entry per epoch")
            bad = [x for x in schedule if not 0.0 <= x <= 1.0]
            if bad:
                raise ValueError(f"similarity_schedule entries must be in [0, 1], got {bad[0]}")
        if sum(self._log_len_terms().values()) > math.log(MAX_RESPONSE_LEN):
            raise self._too_long()

    def _log_len_terms(self) -> dict[str, float]:
        """The terms of the log of the longest length the spec implies, by
        key: the epoch-1 median, its growth over the epochs, and LENGTH_TAIL
        sigmas of the spread."""
        return {
            "len_mu": self.len_mu,
            "growth_mean": max(0.0, (self.epochs - 1) * math.log(self.growth_mean)),
            "len_sigma": LENGTH_TAIL * self.len_sigma,
            "length_jitter": LENGTH_TAIL * self.length_jitter,
        }

    def _too_long(self) -> ValueError:
        """The error for a spec implying responses over MAX_RESPONSE_LEN,
        naming the key that adds the most to their log-length."""
        terms = self._log_len_terms()
        key = max(terms, key=terms.get)
        return ValueError(f"{key}={getattr(self, key)} implies responses of up to "
                          f"e^{sum(terms.values()):.1f} tokens, over the cap of "
                          f"{MAX_RESPONSE_LEN} (e^{math.log(MAX_RESPONSE_LEN):.1f})")

    def similarity_for_epoch(self, epoch: int) -> float:
        if self.similarity_schedule is not None:
            return self.similarity_schedule[epoch - 1]
        return self.similarity

    def prompt_id(self, index: int) -> str:
        width = max(4, len(str(self.num_prompts - 1)))
        return f"p{index:0{width}d}"


def _mutation_mask(rng: np.random.Generator, n: int, s: float, burst_mean: float) -> np.ndarray:
    """Boolean keep-mask with geometric copy/mutate runs; mean keep rate `s`."""
    copy_mean = burst_mean * s / (1.0 - s)
    p_copy = min(1.0, 1.0 / copy_mean)
    p_mut = min(1.0, 1.0 / burst_mean)
    keep_first = bool(rng.random() < s)
    est = max(4, int(2.0 * n / (copy_mean + burst_mean)) + 4)
    while True:
        first = rng.geometric(p_copy if keep_first else p_mut, size=est)
        second = rng.geometric(p_mut if keep_first else p_copy, size=est)
        lens = np.empty(2 * est, dtype=np.int64)
        lens[0::2] = first
        lens[1::2] = second
        if int(lens.sum()) >= n:
            break
        est *= 2
    flags = np.zeros(2 * est, dtype=bool)
    flags[0::2] = keep_first
    flags[1::2] = not keep_first
    return np.repeat(flags, lens)[:n]


def _derive_tokens(
    rng: np.random.Generator,
    parent: np.ndarray,
    s: float,
    target_len: int,
    vocab: int,
    burst_mean: float,
) -> np.ndarray:
    """Mutated copy of `parent`, truncated or padded with fresh tokens."""
    n = min(len(parent), target_len)
    if s >= 1.0:
        core = parent[:n].copy()
    elif s <= 0.0:
        core = rng.integers(0, vocab, size=n, dtype=np.int64)
    else:
        mask = _mutation_mask(rng, n, s, burst_mean)
        core = np.where(mask, parent[:n], rng.integers(0, vocab, size=n, dtype=np.int64))
    if target_len > n:
        tail = rng.integers(0, vocab, size=target_len - n, dtype=np.int64)
        core = np.concatenate([core, tail])
    return core


def generate(spec: TraceSpec) -> list[Response]:
    """Synthesize the full trace, ordered by (epoch, prompt, group member).

    Deterministic per spec: every prompt draws from its own child RNG, so
    prompts are independent of each other and of iteration order.
    """
    out_by_epoch: list[list[Response]] = [[] for _ in range(spec.epochs)]
    # The latent log-length follows an AR(1) whose coefficient is an eighth
    # root of rank_noise, calibrated so the conventional 0.95 setting keeps
    # upward moves across 8 ranking groups in the low teens of percent.
    ar = spec.rank_noise ** 0.125
    drift = math.sqrt(max(0.0, 1.0 - ar * ar))
    for p_idx in range(spec.num_prompts):
        rng = np.random.default_rng([spec.seed, p_idx])
        pid = spec.prompt_id(p_idx)
        z = rng.standard_normal()
        # Epoch 1 responses share a canonical ancestor too, so within-group
        # similarity exists from the start.
        root_len = max(1, int(round(math.exp(spec.len_mu + spec.len_sigma * z))))
        if root_len > MAX_RESPONSE_LEN:
            raise spec._too_long()
        parent = rng.integers(0, spec.vocab_size, size=root_len, dtype=np.int64)
        for epoch in range(1, spec.epochs + 1):
            mu_e = spec.len_mu + (epoch - 1) * math.log(spec.growth_mean)
            median_len = math.exp(mu_e + spec.len_sigma * z)
            s_e = spec.similarity_for_epoch(epoch)
            group: list[Response] = []
            for member in range(spec.group_size):
                jitter = math.exp(spec.length_jitter * rng.standard_normal()) if spec.length_jitter > 0 else 1.0
                target = max(1, int(round(median_len * jitter)))
                if target > MAX_RESPONSE_LEN:
                    raise spec._too_long()
                tokens = _derive_tokens(rng, parent, s_e, target, spec.vocab_size, spec.burst_mean)
                reward = 1.0 if rng.random() < spec.high_reward_frac else 0.0
                # Straight from numpy's C ints, with no int object per token.
                packed = array("i")
                packed.frombytes(tokens.astype(np.int32).tobytes())
                group.append(Response(pid, epoch, packed, reward))
            parent = np.asarray(group[0].tokens, dtype=np.int64)
            out_by_epoch[epoch - 1].extend(group)
            z = ar * z + drift * rng.standard_normal()
    out: list[Response] = []
    for epoch_responses in out_by_epoch:
        out.extend(epoch_responses)
    return out


class Trace:
    """Responses indexed by (epoch, prompt), preserving group member order."""

    def __init__(self, responses: list[Response]):
        self._by_epoch: dict[int, dict[str, list[Response]]] = {}
        for resp in responses:
            self._by_epoch.setdefault(resp.epoch, {}).setdefault(resp.prompt_id, []).append(resp)

    @property
    def epochs(self) -> list[int]:
        return sorted(self._by_epoch)

    def prompts(self, epoch: int) -> list[str]:
        return sorted(self._by_epoch[epoch])

    def group(self, epoch: int, prompt_id: str) -> list[Response]:
        return self._by_epoch[epoch][prompt_id]

    def epoch_responses(self, epoch: int) -> dict[str, list[Response]]:
        if epoch not in self._by_epoch:
            raise KeyError(f"trace has no epoch {epoch}")
        return self._by_epoch[epoch]


@dataclass
class RankMetrics:
    """How previous-epoch medians predicted this epoch's ranking groups.

    The four categories partition all responses: predicted-or-lower group,
    moved up but outside the group's last-finishing slice, moved up into the
    last slice but under the length threshold, and would-migrate.
    """

    accurate_pct: float
    not_last_10_pct: float
    within_1p1x_pct: float
    migrated_pct: float


def rank_metrics(trace: Trace, epoch_pair: tuple[int, int], num_groups: int) -> RankMetrics:
    """Score epoch A's ranking groups as predictions of epoch B's lengths.

    The prompts in both epochs are grouped by `build_groups` over their
    epoch-A `prompt_stats`, as the scheduler plans a step, and each epoch-B
    response falls into one category of :class:`RankMetrics`. Like
    `build_groups`, raises ValueError for fewer than 2 groups or fewer
    prompts than groups.
    """
    e_prev, e_cur = epoch_pair
    prev = trace.epoch_responses(e_prev)
    cur = trace.epoch_responses(e_cur)
    groups = build_groups(prompt_stats({p: prev[p] for p in prev if p in cur}), num_groups)

    # One record per current response, (length, prompt rank, member index,
    # predicted group), in length order with ties by rank and member.
    ranked = [(p, grp.index) for grp in groups for p in grp.prompt_ids]
    records = sorted((resp.generated_len, rank, member, g)
                     for rank, (p, g) in enumerate(ranked)
                     for member, resp in enumerate(cur[p]))
    real_group: dict[tuple[int, int], int] = {}
    idx = 0
    for g, size in enumerate(partition_sizes(len(records), num_groups)):
        for rec in records[idx : idx + size]:
            real_group[rec[1:3]] = g
        idx += size

    # Last-alpha% membership is judged within the predicted (scheduled)
    # group, with the tail size the simulator migrates from.
    per_group: dict[int, list[tuple[int, int]]] = {}
    for length, prank, member, pgroup in records:
        per_group.setdefault(pgroup, []).append((prank, member))
    in_last_alpha: set[tuple[int, int]] = set()
    for members in per_group.values():
        in_last_alpha.update(members[-straggler_tail_size(len(members)):])

    counts = {"accurate": 0, "not_last": 0, "within": 0, "migrated": 0}
    for length, prank, member, pgroup in records:
        if real_group[(prank, member)] <= pgroup:
            counts["accurate"] += 1
        elif (prank, member) not in in_last_alpha:
            counts["not_last"] += 1
        elif length <= BETA_FLOOR * groups[pgroup].max_hist_len:
            counts["within"] += 1
        else:
            counts["migrated"] += 1

    total = len(records)
    return RankMetrics(
        accurate_pct=100.0 * counts["accurate"] / total,
        not_last_10_pct=100.0 * counts["not_last"] / total,
        within_1p1x_pct=100.0 * counts["within"] / total,
        migrated_pct=100.0 * counts["migrated"] / total,
    )


@dataclass
class ReplayResult:
    """Token accounting from the prefix-search replay of one epoch pair."""

    accepted: int
    total: int
    warmup: int

    @property
    def acceptance(self) -> float:
        return self.accepted / self.total if self.total else 0.0

    @property
    def acceptance_after_warmup(self) -> float:
        effective = self.total - self.warmup
        return self.accepted / effective if effective > 0 else 0.0


def token_similarity_replay(
    trace: Trace, epoch_pair: tuple[int, int], prefix_len: int
) -> ReplayResult:
    """Replay each current response against its prompt's previous epoch.

    Simulated generation from the start: when the last `prefix_len` generated
    tokens occur somewhere in a previous-epoch response, the longest identical
    continuation counts as accepted and generation jumps past it; otherwise
    one token is decoded. The first `prefix_len` tokens of every response can
    never be accepted and are reported as warm-up.

    Each prompt's previous epoch is indexed once by `build_tree`, which
    rejects non-finite rewards, and the index is dropped
    before the next prompt's is built. Each response is walked
    through the index once, by `SuffixTree.match_lengths`: `matched[p]` is
    the longest suffix of `tokens[:p + 1]` that occurs inside one previous
    response. The prefix ending at `pos` continues for `run` tokens exactly
    while `matched[pos + i] >= prefix_len + i + 1` for every `i < run`, so
    the replay is linear in the tokens.
    """
    if prefix_len < 1:
        raise ValueError("prefix_len must be >= 1")
    prev = trace.epoch_responses(epoch_pair[0])
    cur = trace.epoch_responses(epoch_pair[1])
    accepted = total = warmup = 0
    for prompt_id in sorted(set(prev) & set(cur)):
        index = build_tree(prompt_id, epoch_pair[0], prev[prompt_id])
        for resp in cur[prompt_id]:
            n = len(resp.tokens)
            total += n
            warmup += min(prefix_len, n)
            matched = index.match_lengths(resp.tokens)
            pos = prefix_len
            while pos < n:
                run = 0
                while pos + run < n and matched[pos + run] > prefix_len + run:
                    run += 1
                accepted += run
                pos += max(run, 1)
        del index
    return ReplayResult(accepted=accepted, total=total, warmup=warmup)
