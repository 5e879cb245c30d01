from __future__ import annotations

import hashlib
import math
import random
import re
import tracemalloc
from array import array

import numpy as np
import pytest
from scipy import stats

import oracles
from rhymesim import io
from rhymesim.history import MAX_TOKEN, Response
from rhymesim.tracegen import (
    RankMetrics,
    Trace,
    TraceSpec,
    generate,
    rank_metrics,
    token_similarity_replay,
)
from test_sim import edited_prompt_set_traces


def small_spec(**overrides):
    base = dict(
        num_prompts=12,
        epochs=3,
        group_size=4,
        len_mu=math.log(80),
        len_sigma=0.5,
        similarity=0.9,
        seed=5,
    )
    base.update(overrides)
    return TraceSpec(**base)


IDENTICAL_EPOCHS = dict(
    similarity=1.0, growth_mean=1.0, length_jitter=0.0, rank_noise=1.0
)


class TestGenerate:
    def test_deterministic_jsonl_bytes(self, tmp_path):
        paths = []
        for name in ("a.jsonl", "b.jsonl"):
            path = tmp_path / name
            io.write_trace(path, generate(small_spec()))
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_seed_changes_output(self):
        a = generate(small_spec(seed=1))
        b = generate(small_spec(seed=2))
        assert any(x.tokens != y.tokens for x, y in zip(a, b))

    def test_trace_shape(self):
        spec = small_spec()
        trace = Trace(generate(spec))
        assert trace.epochs == [1, 2, 3]
        for epoch in trace.epochs:
            assert len(trace.prompts(epoch)) == spec.num_prompts
            for pid in trace.prompts(epoch):
                group = trace.group(epoch, pid)
                assert len(group) == spec.group_size
                assert all(r.generated_len == len(r.tokens) >= 1 for r in group)
                assert all(0 <= t < spec.vocab_size for r in group for t in r.tokens)

    def test_tokens_round_trip_through_jsonl(self, tmp_path):
        responses = generate(small_spec())
        path = tmp_path / "t.jsonl"
        io.write_trace(path, responses)
        loaded = io.read_trace(path)
        assert len(loaded) == len(responses)
        assert all(
            a.tokens == b.tokens and a.reward == b.reward and a.epoch == b.epoch
            for a, b in zip(responses, loaded)
        )

    @pytest.mark.parametrize("similarity,seed,digest", [
        (0.9, 5, "4d4bfcca0b3a63a10a6676da097ae436155f0ff1e6c18f4d42ca0430e2852206"),
        (0.9, 17, "ea17a964aa22cb9e55552d849e754dc1198e43d67d0de7206af97b8509742b36"),
        (0.3, 5, "459b8f51f057f073fc805566279b0409bc643e331a49a38ecf8f3b6596114d6a"),
        (0.3, 17, "db2173771d3946761026f80886d9a1f188f88f2b35ec3b555f7bbfc909042dd2"),
    ])
    def test_trace_bytes_pinned(self, tmp_path, similarity, seed, digest):
        # The bytes gen-trace writes for these specs, pinned when tokens
        # were still held as lists of int objects.
        path = tmp_path / "t.jsonl"
        io.write_trace(path, generate(small_spec(similarity=similarity, seed=seed)))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_tokens_are_c_int_arrays(self, tmp_path):
        responses = generate(small_spec())
        path = tmp_path / "t.jsonl"
        io.write_trace(path, responses)
        loaded = io.read_trace(path)
        for resp in responses + loaded:
            assert isinstance(resp.tokens, array) and resp.tokens.typecode == "i"
        assert [r.tokens for r in loaded] == [r.tokens for r in responses]
        # An array('i') is kept as it is; any other int sequence is converted.
        tokens = array("i", [3, 300, 70000])
        assert Response("p", 1, tokens, 1.0).tokens is tokens
        assert Response("p", 1, (3, 300), 1.0).tokens == array("i", [3, 300])

    def test_read_trace_holds_at_most_8_bytes_per_token(self, tmp_path):
        # A token id above 256 held as a list item costs a 28-byte int object
        # and an 8-byte pointer; as an array('i') item, 4 bytes. The rest is
        # per response: its object, prompt id and array header.
        path = tmp_path / "t.jsonl"
        io.write_trace(path, generate(small_spec(len_mu=math.log(300))))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            loaded = io.read_trace(path)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held <= 8 * sum(len(r.tokens) for r in loaded)

    @pytest.mark.parametrize("record,reason", [
        ('"tokens":[],"reward":1', "empty token list"),
        ('"tokens":[1,2],"reward":NaN', "reward must be finite"),
        ('"tokens":[1,2],"reward":-Infinity', "reward must be finite"),
        ('"tokens":[1,2147483648],"reward":1', "token ids must be in [0, 2147483647]"),
        ('"tokens":[1,-1],"reward":1', "token ids must be in [0, 2147483647]"),
        ('"tokens":[1,"-2"],"reward":1', "token ids must be in [0, 2147483647]"),
        ('"tokens":[1,1e300],"reward":1', "token ids must be in [0, 2147483647]"),
    ])
    def test_unindexable_records_rejected(self, record, reason):
        with pytest.raises(io.TraceFormatError, match=re.escape(reason)):
            io.parse_response_line('{"prompt_id":"p","epoch":1,' + record + "}")

    def test_non_integer_tokens_converted_or_rejected(self):
        line = '{"prompt_id":"p","epoch":1,"tokens":[1,"2",3.0,true],"reward":1}'
        assert list(io.parse_response_line(line).tokens) == [1, 2, 3, 1]
        for tokens in ('["x"]', "[null]", "7"):
            with pytest.raises(io.TraceFormatError):
                io.parse_response_line(f'{{"prompt_id":"p","epoch":1,"tokens":{tokens},"reward":1}}')

    def test_identical_epochs_config_really_identical(self):
        trace = Trace(generate(small_spec(**IDENTICAL_EPOCHS)))
        for pid in trace.prompts(1):
            g1 = [r.tokens for r in trace.group(1, pid)]
            g2 = [r.tokens for r in trace.group(2, pid)]
            assert g1 == g2

    def test_epoch1_lengths_pass_ks_against_lognormal(self):
        mu, sigma = math.log(200), 0.8
        spec = TraceSpec(
            num_prompts=10_000, epochs=1, group_size=1,
            len_mu=mu, len_sigma=sigma, length_jitter=0.0, seed=42,
        )
        lengths = np.array([r.generated_len for r in generate(spec)], dtype=float)
        result = stats.kstest(lengths, stats.lognorm(s=sigma, scale=200).cdf)
        assert result.pvalue > 0.01

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            small_spec(similarity=1.5)
        with pytest.raises(ValueError):
            small_spec(rank_noise=-0.1)
        with pytest.raises(ValueError):
            small_spec(burst_mean=0.5)
        with pytest.raises(ValueError):
            small_spec(similarity_schedule=[0.5])
        # Token ids are C ints: at most MAX_TOKEN + 1 of them.
        for vocab_size in (0, MAX_TOKEN + 2):
            with pytest.raises(ValueError):
                small_spec(vocab_size=vocab_size)

    def test_largest_vocabulary_generates(self):
        spec = small_spec(num_prompts=2, epochs=1, vocab_size=MAX_TOKEN + 1)
        assert max(max(r.tokens) for r in generate(spec)) > 2**30


def mean_metrics(trace, num_groups, epochs):
    ms = [rank_metrics(trace, (e, e + 1), num_groups) for e in epochs]
    return {
        "accurate": np.mean([m.accurate_pct for m in ms]),
        "migrated": np.mean([m.migrated_pct for m in ms]),
    }


class TestRankMetrics:
    def test_identical_epochs_fully_accurate(self):
        trace = Trace(generate(small_spec(**IDENTICAL_EPOCHS)))
        m = rank_metrics(trace, (1, 2), 4)
        assert m.accurate_pct == 100.0
        assert m.migrated_pct == 0.0

    def test_categories_partition(self):
        spec = small_spec(num_prompts=32, group_size=8, epochs=4, rank_noise=0.8)
        trace = Trace(generate(spec))
        for e in (1, 2, 3):
            m = rank_metrics(trace, (e, e + 1), 8)
            total = m.accurate_pct + m.not_last_10_pct + m.within_1p1x_pct + m.migrated_pct
            assert total == pytest.approx(100.0, abs=0.1)

    def test_table2_calibrated_bands(self):
        spec = TraceSpec(
            num_prompts=96, epochs=8, group_size=16,
            len_mu=math.log(60), len_sigma=0.8, similarity=0.9,
            rank_noise=0.85, length_jitter=0.08, growth_mean=1.01, seed=11,
        )
        trace = Trace(generate(spec))
        m = mean_metrics(trace, 8, range(1, 8))
        assert m["accurate"] >= 70.0
        assert 0.5 <= m["migrated"] <= 6.0

    def test_finer_groups_migrate_at_least_as_much(self):
        spec = TraceSpec(
            num_prompts=96, epochs=8, group_size=16,
            len_mu=math.log(60), len_sigma=0.8, similarity=0.9,
            rank_noise=0.85, length_jitter=0.08, growth_mean=1.01, seed=11,
        )
        trace = Trace(generate(spec))
        m8 = mean_metrics(trace, 8, range(1, 8))["migrated"]
        m16 = mean_metrics(trace, 16, range(1, 8))["migrated"]
        assert m16 >= m8

    def test_rank_noise_default_keeps_upward_moves_low(self):
        # rank_noise=0.95 is the conventional stability setting: upward group
        # moves stay at or under the mid-teens of percent for 8 groups.
        spec = TraceSpec(
            num_prompts=128, epochs=6, group_size=16,
            len_mu=math.log(60), len_sigma=0.8, similarity=0.9,
            rank_noise=0.95, length_jitter=0.08, growth_mean=1.01, seed=11,
        )
        trace = Trace(generate(spec))
        moved_up = 100.0 - mean_metrics(trace, 8, range(1, 6))["accurate"]
        assert moved_up <= 16.0

    def test_missing_epoch_raises(self):
        trace = Trace(generate(small_spec()))
        with pytest.raises(KeyError):
            rank_metrics(trace, (3, 4), 4)

    def test_too_few_prompts_raises(self):
        trace = Trace(generate(small_spec(num_prompts=4)))
        with pytest.raises(ValueError):
            rank_metrics(trace, (1, 2), 8)

    @pytest.mark.parametrize("name,pair,groups,counts", [
        # (accurate, not in last 10%, within 1.1x, migrated) response counts.
        # criterion_5's predicted groups hold 192 responses each, so their
        # last 10% is floor(19.2) = 19 of them, as the simulator migrates
        # from; five groups' 20th-from-last response moved up within 1.1x
        # and counts as not in the last 10%.
        ("criterion_5", (1, 2), 8, (1261, 161, 64, 50)),
        ("dropped", (1, 2), 4, (29, 0, 0, 1)),
        ("dropped", (2, 3), 4, (28, 0, 1, 1)),
        ("added", (1, 2), 4, (31, 0, 0, 1)),
        ("added", (2, 3), 4, (32, 1, 1, 0)),
    ])
    def test_pinned_values(self, name, pair, groups, counts):
        if name == "criterion_5":
            # Epochs 1-2 of the 12-epoch criterion-5 trace: each prompt draws
            # its epochs in order, so a shorter trace shares them.
            responses = generate(TraceSpec(
                num_prompts=96, epochs=2, group_size=16,
                len_mu=math.log(60), len_sigma=0.8, similarity=0.9,
                rank_noise=0.85, length_jitter=0.08, growth_mean=1.01, seed=11,
            ))
        else:
            responses = edited_prompt_set_traces()[name]
        total = sum(counts)
        expected = RankMetrics(*(100.0 * c / total for c in counts))
        assert rank_metrics(Trace(responses), pair, groups) == expected


class TestTokenSimilarityReplay:
    def test_identical_epochs_accept_everything_after_warmup(self):
        trace = Trace(generate(small_spec(**IDENTICAL_EPOCHS)))
        result = token_similarity_replay(trace, (1, 2), 3)
        assert result.acceptance_after_warmup == pytest.approx(1.0)
        assert result.acceptance > 0.9

    def test_independent_epochs_accept_almost_nothing(self):
        spec = small_spec(similarity=0.0, len_mu=math.log(200))
        result = token_similarity_replay(Trace(generate(spec)), (1, 2), 3)
        assert result.acceptance < 0.05

    def test_calibrated_math_like_band(self):
        spec = TraceSpec(
            num_prompts=24, epochs=3, group_size=16,
            len_mu=math.log(400), len_sigma=0.6, similarity=0.93,
            burst_mean=8, rank_noise=0.99, length_jitter=0.02, seed=7,
        )
        trace = Trace(generate(spec))
        for pair in ((1, 2), (2, 3)):
            acc = token_similarity_replay(trace, pair, 3).acceptance
            assert 0.85 <= acc <= 0.97

    def test_acceptance_tracks_increasing_similarity(self):
        spec = small_spec(
            num_prompts=16, group_size=8, epochs=4,
            len_mu=math.log(200), similarity_schedule=[0.5, 0.6, 0.8, 0.95],
        )
        trace = Trace(generate(spec))
        accs = [token_similarity_replay(trace, (e, e + 1), 3).acceptance for e in (1, 2, 3)]
        assert accs[0] < accs[1] < accs[2]

    def test_longer_prefix_is_harder_to_match(self):
        spec = small_spec(num_prompts=16, group_size=8, len_mu=math.log(200), similarity=0.8)
        trace = Trace(generate(spec))
        acc3 = token_similarity_replay(trace, (1, 2), 3).acceptance
        acc7 = token_similarity_replay(trace, (1, 2), 7).acceptance
        assert acc7 <= acc3

    def test_matches_brute_force_oracle(self):
        rng = random.Random(7)
        for _ in range(200):
            vocab = rng.randint(2, 4)
            prefix_len = rng.randint(1, 4)
            responses = []
            expected = [0, 0, 0]
            for pid in ("a", "b")[: rng.randint(1, 2)]:
                groups = []
                for epoch in (1, 2):
                    group = [[rng.randrange(vocab) for _ in range(rng.randint(1, 40))]
                             for _ in range(rng.randint(1, 5))]
                    responses += [Response(pid, epoch, t, float(rng.randint(0, 1))) for t in group]
                    groups.append(group)
                counts = oracles.longest_continuation_replay(groups[0], groups[1], prefix_len)
                expected = [x + y for x, y in zip(expected, counts)]
            result = token_similarity_replay(Trace(responses), (1, 2), prefix_len)
            assert [result.accepted, result.total, result.warmup] == expected

    def test_bad_prefix_rejected(self):
        trace = Trace(generate(small_spec()))
        with pytest.raises(ValueError):
            token_similarity_replay(trace, (1, 2), 0)
