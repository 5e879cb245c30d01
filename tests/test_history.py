from __future__ import annotations

import random
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from rhymesim.history import (
    HistoryStore,
    Response,
    StaleEpochError,
    build_tree,
)


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
    # that occurs, through the query interface alone.
    patterns = {
        tuple(tokens[i : i + m])
        for tokens, _ in corpus
        for m in range(1, 5)
        for i in range(len(tokens) - m + 1)
    }
    for pattern in map(list, patterns):
        extensions = [tree.match_prefix(pattern + [c]) for c in range(vocab)]
        assert tree.match_prefix(pattern).priority == oracles.end_mass(corpus, pattern) + sum(
            cursor.priority for cursor in extensions if cursor is not None
        )


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
        cursor = tree.match_prefix([7, 8, 9])
        assert cursor is not None
        assert cursor.priority == pytest.approx(1.0)
        assert cursor.priority == pytest.approx(oracles.subtree_mass(corpus, [7, 8, 9]))

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
        cursor = tree.match_prefix([4, 5])
        assert cursor.priority == pytest.approx(0.75)

    def test_nan_reward_rejected(self):
        with pytest.raises(ValueError):
            build_tree("p", 1, [Response("p", 1, [1], float("nan"))])

    def test_empty_tokens_rejected(self):
        with pytest.raises(ValueError):
            build_tree("p", 1, [Response("p", 1, [], 0.5)])

    def test_wrong_prompt_rejected(self):
        with pytest.raises(ValueError):
            build_tree("p", 1, [Response("q", 1, [1], 0.5)])

    def test_child_sum_invariant(self):
        rng = random.Random(3)
        for _ in range(20):
            corpus = random_corpus(rng, vocab=4)
            check_child_sums(corpus_tree(corpus), corpus, vocab=4)


class TestMatchPrefix:
    def test_present_prefix_found(self):
        corpus = [([1, 2, 3, 4, 5], 1.0)]
        tree = corpus_tree(corpus)
        for i in range(5):
            for j in range(i + 1, 6):
                assert tree.match_prefix([1, 2, 3, 4, 5][i:j]) is not None

    def test_absent_prefix_not_found(self):
        tree = corpus_tree([([1, 2, 3], 1.0)])
        assert tree.match_prefix([3, 1]) is None
        assert tree.match_prefix([9]) is None

    def test_full_response_is_suffix_terminal(self):
        corpus = [([5, 6, 7], 1.0)]
        tree = corpus_tree(corpus)
        cursor = tree.match_prefix([5, 6, 7])
        assert cursor is not None
        draft = tree.extract_draft([5, 6, 7], window=8)
        assert draft.tokens == []
        assert draft.matched_prefix_len == 3

    def test_empty_prefix_rejected(self):
        tree = corpus_tree([([1], 1.0)])
        with pytest.raises(ValueError):
            tree.match_prefix([])

    def test_match_agrees_with_scan(self):
        rng = random.Random(23)
        for _ in range(60):
            corpus = random_corpus(rng, vocab=4, max_len=30)
            tree = corpus_tree(corpus)
            for _ in range(12):
                plen = rng.randint(1, 6)
                prefix = [rng.randrange(4) for _ in range(plen)]
                assert (tree.match_prefix(prefix) is not None) == oracles.prefix_occurs(
                    corpus, prefix
                )


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
        assert draft.matched_prefix_len == 0
        assert draft.source_priority == 0.0

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
        if got.found:
            assert got.source_priority == pytest.approx(
                oracles.subtree_mass(corpus, prefix), abs=1e-6
            )


class TestHistoryStore:
    def test_no_history_before_first_ingest(self):
        store = HistoryStore()
        assert store.get_tree("p") is None

    def test_ingest_then_query(self):
        store = HistoryStore()
        store.ingest_epoch("p", 1, [Response("p", 1, [1, 2, 3], 1.0)])
        tree = store.get_tree("p")
        assert tree is not None and tree.epoch == 1

    def test_stale_epoch_rejected(self):
        store = HistoryStore()
        store.ingest_epoch("p", 3, [Response("p", 3, [1], 1.0)])
        with pytest.raises(StaleEpochError):
            store.ingest_epoch("p", 3, [Response("p", 3, [1], 1.0)])
        with pytest.raises(StaleEpochError):
            store.ingest_epoch("p", 2, [Response("p", 2, [1], 1.0)])

    def test_sequential_ingests_end_at_latest(self):
        store = HistoryStore()
        store.ingest_epoch("p", 3, [Response("p", 3, [1, 1], 1.0)])
        store.ingest_epoch("p", 4, [Response("p", 4, [2, 2], 1.0)])
        assert store.get_tree("p").epoch == 4

    def test_memory_stats(self):
        store = HistoryStore()
        assert store.memory_stats().prompt_count == 0
        tokens = list(range(12))
        store.ingest_epoch("p", 1, [Response("p", 1, tokens, 1.0)])
        stats = store.memory_stats()
        assert stats.prompt_count == 1
        assert stats.total_tokens == 12
        assert stats.total_nodes <= 2 * 12 + 1
        # Re-ingest replaces, never accumulates.
        store.ingest_epoch("p", 2, [Response("p", 2, [5, 6], 1.0)])
        assert store.memory_stats().total_tokens == 2

    def test_concurrent_readers_see_consistent_snapshots(self):
        # Readers on other threads query while this thread ingests newer
        # epochs; every tree they see must be a whole index of one epoch.
        store = HistoryStore()
        epochs = {
            epoch: [[epoch * 10 + i, epoch * 10 + i + 1, epoch] for i in range(4)]
            for epoch in range(1, 6)
        }
        errors: list[str] = []

        def reader():
            for _ in range(300):
                tree = store.get_tree("p")
                if tree is None:
                    continue
                corpus = epochs[tree.epoch]
                first = corpus[0]
                draft = tree.extract_draft(first[:2], window=4)
                joined = first[:2] + draft.tokens
                ok = any(
                    toks[i : i + len(joined)] == joined
                    for toks in corpus
                    for i in range(len(toks))
                )
                if not ok:
                    errors.append(f"epoch {tree.epoch} draft {draft.tokens}")

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for t in threads:
            t.start()
        for epoch, corpus in epochs.items():
            store.ingest_epoch(
                "p", epoch, [Response("p", epoch, toks, 1.0) for toks in corpus]
            )
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
        assert not errors
        assert store.get_tree("p").epoch == 5
