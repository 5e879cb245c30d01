from __future__ import annotations

import itertools
import math
import random
import re
import tracemalloc
from array import array

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from rhymesim.history import MAX_TOKEN, Response, build_tree
from rhymesim.tracegen import Trace, TraceSpec, generate


def corpus_tree(corpus, prompt_id="p", epoch=1):
    responses = [Response(prompt_id, epoch, list(toks), r) for toks, r in corpus]
    return build_tree(prompt_id, epoch, responses)


def random_corpus(rng, max_responses=8, max_len=40, vocab=6):
    # Dyadic rewards (k/64) sum exactly in float64, so tree priorities match
    # the oracle's differently-ordered sums bit for bit and ties agree.
    n = rng.randint(1, max_responses)
    corpus = []
    for _ in range(n):
        length = rng.randint(1, max_len)
        tokens = [rng.randrange(vocab) for _ in range(length)]
        corpus.append((tokens, rng.randint(-64, 64) / 64.0))
    return corpus


def check_child_sums(tree, corpus, vocab):
    # Every suffix starting with s either ends right after s or continues
    # with one token c, so the mass of s is its end mass plus the masses of
    # all its one-token extensions. Checked for every pattern of length <= 4
    # that occurs, walking the index from its root; returns how many.
    patterns = {
        tuple(tokens[i : i + m])
        for tokens, _ in corpus
        for m in range(1, 5)
        for i in range(len(tokens) - m + 1)
    }
    for pattern in map(list, patterns):
        extensions = [oracles.state_mass(tree, pattern + [c]) for c in range(vocab)]
        assert oracles.state_mass(tree, pattern) == oracles.end_mass(corpus, pattern) + sum(
            mass for mass in extensions if mass is not None
        )
    return len(patterns)


class TestBuildTree:
    def test_empty_corpus_gives_root_only(self):
        tree = build_tree("p", 1, [])
        assert tree.total_tokens == 0
        assert tree.node_count == 1
        assert tree.mass[0] == 0.0

    def test_shared_suffix_accumulates_both_rewards(self):
        # Both responses end with [7, 8, 9]; the node spelling that common
        # suffix carries the summed reward mass 0.9 + 0.1.
        corpus = [([1, 7, 8, 9], 0.9), ([2, 7, 8, 9], 0.1)]
        tree = corpus_tree(corpus)
        mass = oracles.state_mass(tree, [7, 8, 9])
        assert mass is not None
        assert mass == pytest.approx(1.0)
        assert mass == pytest.approx(oracles.subtree_mass(corpus, [7, 8, 9]))

    def test_root_priority_is_reward_times_suffix_count(self):
        rng = random.Random(7)
        for _ in range(25):
            corpus = random_corpus(rng)
            tree = corpus_tree(corpus)
            expected = sum(r * len(t) for t, r in corpus)
            assert tree.mass[0] == pytest.approx(expected, abs=1e-9)

    def test_node_count_linear_bound(self):
        rng = random.Random(11)
        for _ in range(40):
            corpus = random_corpus(rng, max_responses=12, max_len=60, vocab=3)
            tree = corpus_tree(corpus)
            n = sum(len(t) for t, _ in corpus)
            assert tree.node_count <= 2 * n + 1

    def test_duplicate_responses_accumulate(self):
        corpus = [([4, 5], 0.25), ([4, 5], 0.5)]
        tree = corpus_tree(corpus)
        assert oracles.state_mass(tree, [4, 5]) == pytest.approx(0.75)

    def test_nan_reward_rejected(self):
        with pytest.raises(ValueError):
            build_tree("p", 1, [Response("p", 1, [1], float("nan"))])

    def test_empty_response_leaves_the_index_as_without_it(self):
        # An empty response adds no substring, whatever its reward and
        # wherever it stands; a history of empty responses alone is indexed
        # as the empty string.
        rng = random.Random(13)
        for _ in range(20):
            corpus = random_corpus(rng)
            with_empty = list(corpus)
            for _ in range(rng.randint(1, 3)):
                reward = rng.choice([0.0, 1.0, -0.5])
                with_empty.insert(rng.randint(0, len(with_empty)), ([], reward))
            want, got = corpus_tree(corpus), corpus_tree(with_empty)
            for field in ("nxt", "link", "length", "mass", "total_tokens"):
                assert getattr(got, field) == getattr(want, field), field
        alone = corpus_tree([([], 1.0), ([], 0.0)])
        assert (alone.nxt, alone.link, alone.length, alone.mass, alone.total_tokens) == (
            [{}], [-1], [0], [0.0], 0)

    def test_wrong_prompt_rejected(self):
        with pytest.raises(ValueError):
            build_tree("p", 1, [Response("q", 1, [1], 0.5)])

    def test_child_sum_invariant(self):
        rng = random.Random(3)
        checked = 0
        for _ in range(20):
            corpus = random_corpus(rng, vocab=4)
            checked += check_child_sums(corpus_tree(corpus), corpus, vocab=4)
        assert checked == 3239


class TestMatchPrefix:
    def test_present_prefix_found(self):
        corpus = [([1, 2, 3, 4, 5], 1.0)]
        tree = corpus_tree(corpus)
        for i in range(5):
            for j in range(i + 1, 6):
                assert tree.extract_draft([1, 2, 3, 4, 5][i:j], 1).found

    def test_absent_prefix_not_found(self):
        tree = corpus_tree([([1, 2, 3], 1.0)])
        assert not tree.extract_draft([3, 1], 1).found
        assert not tree.extract_draft([9], 1).found

    def test_full_response_is_suffix_terminal(self):
        corpus = [([5, 6, 7], 1.0)]
        tree = corpus_tree(corpus)
        draft = tree.extract_draft([5, 6, 7], window=8)
        assert draft.tokens == []
        assert draft.found

    def test_empty_prefix_rejected(self):
        tree = corpus_tree([([1], 1.0)])
        with pytest.raises(ValueError):
            tree.extract_draft([], 1)

    def test_match_agrees_with_scan(self):
        rng = random.Random(23)
        for _ in range(60):
            corpus = random_corpus(rng, vocab=4, max_len=30)
            tree = corpus_tree(corpus)
            for _ in range(12):
                plen = rng.randint(1, 6)
                prefix = [rng.randrange(4) for _ in range(plen)]
                assert tree.extract_draft(prefix, 1).found == oracles.prefix_occurs(corpus, prefix)


class TestExtractDraft:
    def test_prefers_high_priority_branch(self):
        corpus = [([1, 2, 10, 11, 12], 0.9), ([1, 2, 20, 21, 22], 0.1)]
        tree = corpus_tree(corpus)
        draft = tree.extract_draft([1, 2], window=4)
        assert draft.tokens == oracles.greedy_draft(corpus, [1, 2], 4) == [10, 11, 12]

    def test_truncates_at_branch_end(self):
        tree = corpus_tree([([1, 2, 3, 4, 5], 1.0)])
        draft = tree.extract_draft([1, 2], window=32)
        assert draft.tokens == [3, 4, 5]

    def test_no_match_returns_empty(self):
        tree = corpus_tree([([1, 2, 3], 1.0)])
        draft = tree.extract_draft([7, 8], window=4)
        assert draft.tokens == []
        assert not draft.found

    def test_window_caps_length(self):
        tree = corpus_tree([(list(range(20)), 1.0)])
        draft = tree.extract_draft([0, 1], window=5)
        assert draft.tokens == [2, 3, 4, 5, 6]

    def test_negative_rewards_still_take_max(self):
        corpus = [([1, 5, 6], -0.2), ([1, 7, 8], -0.9)]
        tree = corpus_tree(corpus)
        draft = tree.extract_draft([1], window=2)
        assert draft.tokens == oracles.greedy_draft(corpus, [1], 2) == [5, 6]

    def test_tie_breaks_to_smallest_token(self):
        corpus = [([1, 9, 9], 0.5), ([1, 3, 3], 0.5)]
        tree = corpus_tree(corpus)
        assert tree.extract_draft([1], window=2).tokens == [3, 3]

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_oracle_equivalence(self, data):
        n_resp = data.draw(st.integers(1, 6))
        corpus = []
        for _ in range(n_resp):
            tokens = data.draw(st.lists(st.integers(0, 4), min_size=1, max_size=24))
            reward = data.draw(st.integers(-64, 64)) / 64.0
            corpus.append((tokens, reward))
        tree = corpus_tree(corpus)
        prefix = data.draw(st.lists(st.integers(0, 4), min_size=1, max_size=5))
        window = data.draw(st.integers(1, 12))
        expected = oracles.greedy_draft(corpus, prefix, window)
        got = tree.extract_draft(prefix, window)
        assert got.tokens == expected
        assert got.found == oracles.prefix_occurs(corpus, prefix)
        if got.found:
            assert oracles.state_mass(tree, prefix) == pytest.approx(
                oracles.subtree_mass(corpus, prefix), abs=1e-6
            )


def all_strings(vocab, max_len):
    return [list(s) for m in range(1, max_len + 1) for s in itertools.product(range(vocab), repeat=m)]


def similarity_09_groups(num_prompts):
    # The spec_hisim benchmark shape: 4 samples per prompt, median 150
    # tokens, similarity 0.9; the indexes are those of epoch 2, as the
    # simulator drafts from them in epoch 3.
    spec = TraceSpec(num_prompts=num_prompts, epochs=2, group_size=4, similarity=0.9,
                     len_mu=math.log(150.0), len_sigma=0.8, rank_noise=0.9,
                     length_jitter=0.06, growth_mean=1.005, seed=1)
    return Trace(generate(spec)).epoch_responses(2)


def small_corpora():
    # Twelve corpora over each of the vocabularies 3 and 4.
    rng = random.Random(29)
    for vocab in (3, 4):
        for _ in range(12):
            yield vocab, random_corpus(rng, max_responses=5, max_len=10, vocab=vocab)


class TestAutomaton:
    def test_exhaustive_small_corpora(self):
        # Every string of length <= 4 over the vocabulary: the index finds it
        # exactly when it occurs, and drafts from it what the brute-force
        # greedy scan does.
        checked = occurring = 0
        for vocab, corpus in small_corpora():
            tree = corpus_tree(corpus)
            for s in all_strings(vocab, 4):
                occurs = oracles.prefix_occurs(corpus, s)
                checked += 1
                occurring += occurs
                draft = tree.extract_draft(s, 6)
                assert draft.found == occurs
                assert draft.tokens == (oracles.greedy_draft(corpus, s, 6) if occurs else [])
        assert (checked, occurring) == (5520, 577)

    def test_match_lengths_exhaustive(self):
        # Every string of length 6 over the vocabulary, and so, as their
        # prefixes, every shorter one: at each position the walk reports the
        # longest suffix that occurs in the corpus. Then random 60-token
        # strings, long enough to lose and regain matches many times.
        rng = random.Random(37)
        checked = matched = 0
        for vocab, corpus in small_corpora():
            tree = corpus_tree(corpus)
            strings = [list(s) for s in itertools.product(range(vocab), repeat=6)]
            strings += [[rng.randrange(vocab) for _ in range(60)] for _ in range(20)]
            for s in strings:
                expected = oracles.match_lengths(corpus, s)
                assert tree.match_lengths(s) == expected
                checked += 1
                matched += sum(1 for m in expected if m)
        # Strings checked, and positions where some suffix occurs.
        assert (checked, matched) == (58380, 338464)

    def test_match_lengths_of_a_response_is_its_positions(self):
        corpus = [([1, 2, 3, 1, 2, 4], 1.0), ([2, 3, 5], 0.5)]
        tree = corpus_tree(corpus)
        assert tree.match_lengths([1, 2, 3, 1, 2, 4]) == [1, 2, 3, 4, 5, 6]
        # 9 occurs nowhere; [2, 3, 1] only inside the first response.
        assert tree.match_lengths([9, 2, 3, 5, 9, 2, 3, 1]) == [0, 1, 2, 3, 0, 1, 2, 3]
        assert tree.match_lengths([]) == []

    def test_node_count_pinned(self):
        # One state per class of substrings with the same end positions,
        # plus the empty string's. [1, 2, 1, 2]: {1}, {2, 12}, {21, 121},
        # {212, 1212} -> 5. [1, 2, 3, 2, 3]: {1}, {12}, {2}, {3, 23}, {123},
        # {32, 232, 1232}, {323, 2323, 12323} -> 8. [1, 2, 1, 2] with
        # [2, 1, 3]: {1}, {2}, {12}, {21}, {121}, {212, 1212},
        # {3, 13, 213} -> 8.
        for corpus, states in [
            ([([1, 2, 1, 2], 1.0)], 5),
            ([([1, 2, 3, 2, 3], 1.0)], 8),
            ([([1, 2, 1, 2], 1.0), ([2, 1, 3], 0.5)], 8),
        ]:
            assert corpus_tree(corpus).node_count == states
            assert oracles.end_position_classes(corpus) + 1 == states

    def test_node_count_is_end_position_classes(self):
        rng = random.Random(31)
        for _ in range(40):
            corpus = random_corpus(rng, max_responses=5, max_len=12, vocab=3)
            assert corpus_tree(corpus).node_count == oracles.end_position_classes(corpus) + 1

    @pytest.mark.parametrize("tok", [-1, MAX_TOKEN + 1])
    def test_token_ids_out_of_range_rejected(self, tok):
        with pytest.raises(ValueError):
            build_tree("p", 1, [Response("p", 1, [1, tok], 0.5)])

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(
        st.integers(0, 3), st.integers(-3, 2**33), st.booleans(), st.none(),
        st.floats(0, 5), st.text(max_size=1),
        st.integers(0, 2**32 - 1).map(np.int64)), max_size=8))
    def test_token_column_takes_exactly_integer_ids(self, values):
        # The one-pass conversion accepts a list exactly when every item is
        # an integer in [0, MAX_TOKEN] that is not a bool, and otherwise
        # names the first item that is not.
        def is_id(t):
            return isinstance(t, (int, np.integer)) and type(t) is not bool \
                and 0 <= t <= MAX_TOKEN
        bad = [t for t in values if not is_id(t)]
        if bad:
            with pytest.raises(ValueError, match=re.escape(
                    f"token ids must be integers in [0, {MAX_TOKEN}], got {bad[0]!r}")):
                Response("p", 1, values, 1.0)
        else:
            assert Response("p", 1, values, 1.0).tokens == array("i", map(int, values))

    def test_index_bytes_per_token_bound(self):
        trees = [build_tree(pid, 2, group) for pid, group in similarity_09_groups(48).items()]
        # One transition dict per state, and a float and some int objects
        # per state and per transition: 499 B/token measured, plus 10.
        assert sum(t.index_bytes for t in trees) / sum(t.total_tokens for t in trees) <= 509.0

    def test_index_bytes_matches_tracemalloc(self):
        groups = similarity_09_groups(12)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            trees = [build_tree(pid, 2, group) for pid, group in groups.items()]
            used = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        measured = sum(t.index_bytes for t in trees)
        assert abs(measured - used) <= 0.1 * used
