from __future__ import annotations

import itertools
import random
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from rhymesim.history import Response, build_tree
from rhymesim.spec_engine import (
    Replayed,
    SpecConfig,
    SpecStats,
    next_prefix_len,
    next_window,
    replay_response,
    verify,
)


class TestAimdWindow:
    def test_additive_increase_by_two(self):
        assert next_window(SpecConfig(), 2, True) == 4

    def test_caps_at_upper_threshold(self):
        assert next_window(SpecConfig(), 30, True) == 32
        assert next_window(SpecConfig(), 32, True) == 32

    def test_any_rejection_resets_to_init(self):
        assert next_window(SpecConfig(), 24, False) == 2

    def test_closed_form_over_all_short_histories(self):
        # Window state after any accept/reject history equals
        # min(init + add_step * trailing_accept_streak, max).
        config = SpecConfig()
        for length in range(0, 13):
            for history in itertools.product([False, True], repeat=length):
                size = config.window_init
                for accepted in history:
                    size = next_window(config, size, accepted)
                assert size == oracles.window_after(list(history))

    def test_custom_init_is_reset_target(self):
        config = SpecConfig(window_init=4, window_add=3, window_max=12)
        assert next_window(config, 10, False) == 4
        assert next_window(config, 10, True) == 12

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            SpecConfig(window_init=64)
        with pytest.raises(ValueError):
            SpecConfig(window_init=0)
        with pytest.raises(ValueError, match="window_add"):
            SpecConfig(window_add=-5)
        assert SpecConfig(window_add=0).window_add == 0


class TestPrefixPolicy:
    def test_no_match_shrinks(self):
        assert next_prefix_len(SpecConfig(), 7, False) == 6

    def test_floor_at_min(self):
        assert next_prefix_len(SpecConfig(), 3, False) == 3

    def test_match_resets_to_initial(self):
        assert next_prefix_len(SpecConfig(), 5, True) == 7

    def test_invalid_prefix_rejected(self):
        with pytest.raises(ValueError):
            SpecConfig(prefix_init=3, prefix_min=4)
        with pytest.raises(ValueError):
            SpecConfig(prefix_min=0)


class TestVerify:
    def test_partial_accept(self):
        assert verify([5, 6, 7], [5, 6, 9, 1]) == 2

    def test_full_accept(self):
        truth = [1, 2, 3, 4, 5, 6, 7, 8]
        assert verify(list(truth), truth) == 8

    def test_empty_draft(self):
        assert verify([], [1, 2]) == 0

    def test_draft_longer_than_truth(self):
        assert verify([1, 2, 3], [1, 2]) == 2


def corpus_tree(corpus):
    return build_tree("p", 1, [Response("p", 1, list(t), r) for t, r in corpus])


class SpyTree:
    """Forwards `match_lengths` and `extract_draft` to a real suffix tree and
    records each draft lookup as (prefix, window, draft tokens)."""

    def __init__(self, corpus):
        self.tree = corpus_tree(corpus)
        self.calls: list[tuple[list[int], int, list[int]]] = []

    def match_lengths(self, tokens):
        return self.tree.match_lengths(tokens)

    def extract_draft(self, prefix, window):
        result = self.tree.extract_draft(prefix, window)
        self.calls.append((list(prefix), window, list(result.tokens)))
        return result


def landed(replay: Replayed) -> list[int]:
    """The cumulative tokens after each iteration of `replay`."""
    if replay.profile is None:
        return list(range(1, replay.iterations + 1))
    return list(replay.profile)


def assert_replays_agree(truth, tree, config):
    """`replay_response` equals the per-iteration sliced replay on the
    cumulative profile, which is None exactly when every iteration lands one
    token, and on every counter; returns the sliced lookups."""
    replay = replay_response(truth, tree, config)
    per_iter, drafted, accepted, verify_passes, lookups = oracles.sliced_replay(
        truth, tree, config)
    profile = array("i", itertools.accumulate(per_iter))
    assert replay == (len(per_iter), None if set(per_iter) <= {1} else profile,
                      drafted, accepted, verify_passes)
    stats = SpecStats()
    stats.count(len(truth), replay)
    assert stats == SpecStats(tokens_total=len(truth), tokens_speculated=drafted,
                              tokens_accepted=accepted, verify_passes=verify_passes,
                              decode_passes=len(per_iter) - verify_passes)
    return lookups


class TestStepResponse:
    """Per-iteration behaviour, observed through `replay_response` and the
    draft lookups it makes."""

    def test_unmatched_history_decodes_one_token_per_iteration(self):
        replay = replay_response([4, 5, 6], corpus_tree([([7, 8, 9], 1.0)]), SpecConfig())
        assert replay == Replayed(3, None, 0, 0, 0)

    def test_full_accept_appends_window_plus_bonus(self):
        truth = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
        spy = SpyTree([(truth, 1.0)])
        config = SpecConfig(prefix_init=3, prefix_min=3)
        replay = replay_response(truth, spy, config)
        # Three warm-up decodes until the prefix exists, then 2 accepted
        # draft tokens + 1 bonus token.
        assert list(replay.profile[:4]) == [1, 2, 3, 6]
        assert spy.calls[0] == ([1, 2, 3], 2, [4, 5])
        assert spy.calls[1][1] == 4

    def test_window_grows_on_full_accept_and_resets_on_partial(self):
        truth = list(range(40))
        # History agrees with the truth up to token 19, then diverges. The
        # lookup after the partial draft misses, so only the sliced replay,
        # which asks the index at every iteration, records its window.
        tree = corpus_tree([(list(range(20)) + [999] * 5, 1.0)])
        config = SpecConfig(prefix_init=3, prefix_min=3)
        lookups = assert_replays_agree(truth, tree, config)
        windows = [window for _, window, _ in lookups]
        assert windows[:3] == [2, 4, 6]
        partial = next(i for i, (prefix, window, draft) in enumerate(lookups)
                       if 999 in draft)
        assert lookups[partial][2][:2] == [18, 19]
        assert lookups[partial + 1][1] == config.window_init

    def test_output_equals_truth_regardless_of_drafts(self):
        rng = random.Random(5)
        for _ in range(30):
            truth = [rng.randrange(6) for _ in range(rng.randint(1, 120))]
            # History that may or may not resemble the truth at all.
            corpus = [
                ([rng.randrange(6) for _ in range(rng.randint(1, 120))], 1.0)
                for _ in range(3)
            ]
            if rng.random() < 0.5:
                corpus.append((list(truth), 0.5))
            spy = SpyTree(corpus)
            replay = replay_response(truth, spy, SpecConfig())
            assert landed(replay)[-1] == len(truth)
            stats = SpecStats()
            stats.count(len(truth), replay)
            assert stats.verify_passes + stats.decode_passes == replay.iterations
            # Every lookup prefix is the generated text (= truth) just before
            # some iteration, in iteration order.
            starts = [0] + landed(replay)[:-1]
            matched = 0
            for pos in starts:
                if matched < len(spy.calls):
                    prefix = spy.calls[matched][0]
                    if len(prefix) <= pos and truth[pos - len(prefix) : pos] == prefix:
                        matched += 1
            assert matched == len(spy.calls)

    def test_prefix_policy_shrinks_on_miss_and_resets_on_hit(self):
        truth = list(range(30))
        # The first lookups miss; truth[10:20] occurs in the history. The
        # replay under test never asks the index on a miss, so the prefix
        # lengths are read off the sliced replay it must agree with.
        tree = corpus_tree([(list(range(100, 130)), 1.0), (list(range(10, 20)), 1.0)])
        config = SpecConfig(prefix_init=5, prefix_min=3)
        lookups = assert_replays_agree(truth, tree, config)
        lens = [len(prefix) for prefix, _, _ in lookups]
        assert lens[:4] == [5, 4, 3, 3]
        hit = next(i for i, (_, _, draft) in enumerate(lookups) if draft)
        assert lookups[hit][0] == [10, 11, 12]
        assert lens[hit + 1] == config.prefix_init

    def test_misses_never_call_the_index(self):
        # Same history as above: only the prefixes that occur are looked up.
        truth = list(range(30))
        spy = SpyTree([(list(range(100, 130)), 1.0), (list(range(10, 20)), 1.0)])
        replay_response(truth, spy, SpecConfig(prefix_init=5, prefix_min=3))
        assert spy.calls and all(
            oracles.prefix_occurs([(list(range(10, 20)), 1.0)], prefix)
            for prefix, _, _ in spy.calls)

    def test_identical_history_reaches_full_acceptance(self):
        truth = list(range(400))
        tree = build_tree("p", 1, [Response("p", 1, list(truth), 1.0)])
        replay = replay_response(truth, tree, SpecConfig())
        assert replay.profile[-1] == len(truth)
        # After warm-up everything lands through accepted drafts.
        stats_accept = replay.accepted / (len(truth) - 7)
        assert stats_accept > 0.95
        assert replay.iterations < len(truth) / 4


class TestReplayResponse:
    def test_plain_decoding_counts_one_pass_per_token(self):
        stats = SpecStats()
        stats.count(50)
        assert stats == SpecStats(tokens_total=50, decode_passes=50)

    def test_stats_accounting(self):
        truth = list(range(200))
        stats = SpecStats()
        tree = build_tree("p", 1, [Response("p", 1, list(truth), 1.0)])
        replay = replay_response(truth, tree, SpecConfig())
        stats.count(len(truth), replay)
        assert stats.tokens_total == 200
        assert stats.tokens_accepted <= stats.tokens_speculated
        assert 0.0 <= stats.speculation_rate <= 1.0
        assert stats.verify_passes + stats.decode_passes == replay.iterations


class TestReplayEquivalence:
    """`replay_response` walks each response through the index once and
    asks for a draft only where the prefix occurs; it must land exactly what
    the per-iteration sliced replay lands."""

    CONFIGS = [
        SpecConfig(),
        SpecConfig(prefix_init=3, prefix_min=1),
        SpecConfig(prefix_init=1, prefix_min=1),
        SpecConfig(window_init=1, window_add=1, window_max=2, prefix_init=4, prefix_min=2),
        SpecConfig(window_init=2, window_max=2, prefix_init=2, prefix_min=1),
    ]

    def test_random_corpora(self):
        rng = random.Random(41)
        lookups = drafts = 0
        for case in range(200):
            vocab = rng.randint(2, 6)
            corpus = [([rng.randrange(vocab) for _ in range(rng.randint(1, 30))],
                       rng.choice([0.0, 0.5, 1.0])) for _ in range(rng.randint(1, 4))]
            if case % 3 == 0:
                # A truth that copies the start of a history response, so
                # drafts often run past the truth's end, then may run on.
                head = corpus[0][0][:rng.randint(1, len(corpus[0][0]))]
                truth = head + [rng.randrange(vocab) for _ in range(rng.choice([0, 0, 5]))]
            else:
                truth = [rng.randrange(vocab) for _ in range(rng.randint(1, 40))]
            tree = corpus_tree(corpus)
            found = assert_replays_agree(truth, tree, self.CONFIGS[case % len(self.CONFIGS)])
            lookups += len(found)
            drafts += sum(1 for _, _, draft in found if draft)
        # Lookups of the sliced replay, and those that drafted something.
        assert (lookups, drafts) == (2204, 1323)

    def test_truth_shorter_than_the_prefix(self):
        tree = corpus_tree([([1, 2, 3, 4], 1.0)])
        for truth in ([1], [1, 2], [1, 2, 3, 4, 5, 6]):
            lookups = assert_replays_agree(truth, tree, SpecConfig())
            assert lookups == []

    def test_draft_past_the_end_of_the_truth(self):
        # The history runs on after the truth ends: the draft is cut by the
        # truth's end, and no bonus token follows it.
        tree = corpus_tree([(list(range(12)), 1.0)])
        config = SpecConfig(prefix_init=2, prefix_min=1, window_init=8, window_max=8)
        lookups = assert_replays_agree(list(range(6)), tree, config)
        assert lookups == [([0, 1], 8, list(range(2, 10)))]
        replay = replay_response(list(range(6)), tree, config)
        assert list(replay.profile) == [1, 2, 6]

    def test_repetitive_histories_replay_in_linear_time(self, time_limit):
        # Real RL responses repeat themselves; an index whose lookups grow
        # with the number of occurrences would make these quadratic.
        rng = random.Random(43)
        phrases = [[rng.randrange(100, 200) for _ in range(20)] for _ in range(4)]
        fresh = itertools.count(1000)
        cases = [
            # Four responses of 4,000 copies of one token.
            ([([7] * 4000, 1.0)] * 4, [[7] * 4000]),
            # Four responses, each one 20-token phrase repeated 200 times.
            ([(phrase * 200, 0.25 * i) for i, phrase in enumerate(phrases)],
             [phrases[0] * 200, phrases[3] * 100 + phrases[1] * 100]),
            # A one-token history, against truths with a fresh token before
            # every fourth repeat.
            ([([7] * 4000, 1.0)],
             [[tok for i in range(4000) for tok in ([next(fresh), 7] if i % 4 == k else [7])]
              for k in range(4)]),
        ]
        for corpus, truths in cases:
            tree = corpus_tree(corpus)
            for truth in truths:
                for config in (SpecConfig(), SpecConfig(prefix_init=3, prefix_min=1)):
                    assert_replays_agree(truth, tree, config)


@st.composite
def replay_cases(draw):
    """(truth, corpus, config) over a vocabulary of 2-5 tokens, the truth
    sometimes copying the start of a history response."""
    vocab = draw(st.integers(2, 5))
    tokens = st.lists(st.integers(0, vocab - 1), min_size=1, max_size=30)
    corpus = draw(st.lists(st.tuples(tokens, st.sampled_from([0.0, 0.5, 1.0])),
                           min_size=1, max_size=3))
    truth = draw(tokens)
    if draw(st.booleans()):
        head = corpus[0][0]
        truth = head[:draw(st.integers(1, len(head)))] + truth[:draw(st.integers(0, 5))]
    prefix_min = draw(st.integers(1, 4))
    window_init = draw(st.integers(1, 4))
    config = SpecConfig(window_init=window_init, window_add=draw(st.integers(0, 3)),
                        window_max=draw(st.integers(window_init, 8)),
                        prefix_init=draw(st.integers(prefix_min, 7)), prefix_min=prefix_min)
    return truth, corpus, config


@settings(max_examples=300, deadline=None)
@given(case=replay_cases())
def test_replay_matches_the_sliced_oracle(case):
    """`profile` is the running sum of the sliced replay's tokens per
    iteration, None exactly when each is 1, and the counters agree."""
    truth, corpus, config = case
    assert_replays_agree(truth, corpus_tree(corpus), config)
