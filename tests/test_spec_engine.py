from __future__ import annotations

import itertools
import random
from array import array

from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from rhymesim.history import Response, build_tree
from rhymesim.spec_engine import (
    PREFIX_INIT,
    WINDOW_INIT,
    Replayed,
    SpecStats,
    next_window,
    replay_response,
    verify,
)


class TestAimdWindow:
    def test_additive_increase_by_two(self):
        assert next_window(2, True) == 4

    def test_caps_at_upper_threshold(self):
        assert next_window(30, True) == 32
        assert next_window(32, True) == 32

    def test_any_rejection_resets_to_init(self):
        assert next_window(24, False) == 2

    def test_closed_form_over_all_short_histories(self):
        # Window state after any accept/reject history equals
        # min(init + add_step * trailing_accept_streak, max).
        for length in range(0, 13):
            for history in itertools.product([False, True], repeat=length):
                size = WINDOW_INIT
                for accepted in history:
                    size = next_window(size, accepted)
                assert size == oracles.window_after(list(history))


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


def assert_replays_agree(truth, tree):
    """`replay_response` equals the per-iteration sliced replay on the
    cumulative profile, which is None exactly when every iteration lands one
    token, and on every counter; returns the sliced lookups."""
    replay = replay_response(truth, tree)
    per_iter, drafted, accepted, verify_passes, lookups = oracles.sliced_replay(truth, tree)
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
        replay = replay_response([4, 5, 6], corpus_tree([([7, 8, 9], 1.0)]))
        assert replay == Replayed(3, None, 0, 0, 0)

    def test_full_accept_appends_window_plus_bonus(self):
        truth = list(range(1, 21))
        spy = SpyTree([(truth, 1.0)])
        replay = replay_response(truth, spy)
        # Seven warm-up decodes until the prefix exists, then 2 accepted
        # draft tokens + 1 bonus token.
        assert list(replay.profile[:8]) == [1, 2, 3, 4, 5, 6, 7, 10]
        assert spy.calls[0] == ([1, 2, 3, 4, 5, 6, 7], 2, [8, 9])
        assert spy.calls[1][1] == 4

    def test_window_grows_on_full_accept_and_resets_on_partial(self):
        truth = list(range(40))
        # History agrees with the truth up to token 19, then diverges. The
        # lookup after the partial draft misses, so only the sliced replay,
        # which asks the index at every iteration, records its window.
        tree = corpus_tree([(list(range(20)) + [999] * 5, 1.0)])
        lookups = assert_replays_agree(truth, tree)
        windows = [window for _, window, _ in lookups]
        assert windows[:3] == [2, 4, 6]
        partial = next(i for i, (prefix, window, draft) in enumerate(lookups)
                       if 999 in draft)
        assert lookups[partial][2] == [15, 16, 17, 18, 19, 999]
        assert lookups[partial + 1][1] == WINDOW_INIT

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
            replay = replay_response(truth, spy)
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
        truth = list(range(40))
        # The first lookups miss; truth[20:30] occurs in the history. The
        # replay under test never asks the index on a miss, so the prefix
        # lengths are read off the sliced replay it must agree with: one
        # shorter per miss down to PREFIX_MIN, then back to PREFIX_INIT.
        tree = corpus_tree([(list(range(100, 130)), 1.0), (list(range(20, 30)), 1.0)])
        lookups = assert_replays_agree(truth, tree)
        lens = [len(prefix) for prefix, _, _ in lookups]
        assert lens[:7] == [7, 6, 5, 4, 3, 3, 3]
        hit = next(i for i, (_, _, draft) in enumerate(lookups) if draft)
        assert lookups[hit][0] == [20, 21, 22]
        assert lens[hit + 1] == PREFIX_INIT

    def test_misses_never_call_the_index(self):
        # Same history as above: only the prefixes that occur are looked up.
        truth = list(range(40))
        spy = SpyTree([(list(range(100, 130)), 1.0), (list(range(20, 30)), 1.0)])
        replay_response(truth, spy)
        assert spy.calls and all(
            oracles.prefix_occurs([(list(range(20, 30)), 1.0)], prefix)
            for prefix, _, _ in spy.calls)

    def test_identical_history_reaches_full_acceptance(self):
        truth = list(range(400))
        tree = build_tree("p", 1, [Response("p", 1, list(truth), 1.0)])
        replay = replay_response(truth, tree)
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
        replay = replay_response(truth, tree)
        stats.count(len(truth), replay)
        assert stats.tokens_total == 200
        assert stats.tokens_accepted <= stats.tokens_speculated
        assert 0.0 <= stats.speculation_rate <= 1.0
        assert stats.verify_passes + stats.decode_passes == replay.iterations


class TestReplayEquivalence:
    """`replay_response` walks each response through the index once and
    asks for a draft only where the prefix occurs; it must land exactly what
    the per-iteration sliced replay lands."""

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
            found = assert_replays_agree(truth, tree)
            lookups += len(found)
            drafts += sum(1 for _, _, draft in found if draft)
        # Lookups of the sliced replay, and those that drafted something.
        assert (lookups, drafts) == (1898, 305)

    def test_truth_shorter_than_the_prefix(self):
        tree = corpus_tree([([1, 2, 3, 4], 1.0)])
        for truth in ([1], [1, 2], [1, 2, 3, 4, 5, 6]):
            lookups = assert_replays_agree(truth, tree)
            assert lookups == []

    def test_draft_past_the_end_of_the_truth(self):
        # The history runs on after the truth ends: the draft is cut by the
        # truth's end, and no bonus token follows it.
        # The second draft, of 4 tokens, has 2 left to land.
        tree = corpus_tree([(list(range(30)), 1.0)])
        lookups = assert_replays_agree(list(range(12)), tree)
        assert lookups == [(list(range(7)), 2, [7, 8]), (list(range(3, 10)), 4, [10, 11, 12, 13])]
        replay = replay_response(list(range(12)), tree)
        assert list(replay.profile) == [1, 2, 3, 4, 5, 6, 7, 10, 12]

    def test_repetitive_histories_replay_in_linear_time(self):
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
                assert_replays_agree(truth, tree)


@st.composite
def replay_cases(draw):
    """(truth, corpus) over a vocabulary of 2-5 tokens, the truth sometimes
    copying the start of a history response."""
    vocab = draw(st.integers(2, 5))
    tokens = st.lists(st.integers(0, vocab - 1), min_size=1, max_size=30)
    corpus = draw(st.lists(st.tuples(tokens, st.sampled_from([0.0, 0.5, 1.0])),
                           min_size=1, max_size=3))
    truth = draw(tokens)
    if draw(st.booleans()):
        head = corpus[0][0]
        truth = head[:draw(st.integers(1, len(head)))] + truth[:draw(st.integers(0, 5))]
    return truth, corpus


@settings(max_examples=300, deadline=None)
@given(case=replay_cases())
def test_replay_matches_the_sliced_oracle(case):
    """`profile` is the running sum of the sliced replay's tokens per
    iteration, None exactly when each is 1, and the counters agree."""
    truth, corpus = case
    assert_replays_agree(truth, corpus_tree(corpus))
