from __future__ import annotations

import hashlib
import json
import math
import random
import re
import tempfile
import tracemalloc
from array import array
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import oracles
from rhymesim import io
from rhymesim.history import MAX_TOKEN, Response
from rhymesim.tracegen import (
    MAX_RESPONSE_LEN,
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
        # per response: its object, prompt id and array header. The reader
        # holds one chunk of lines at a time, so over 20 chunks its peak stays
        # near what it keeps; a reader that took in the whole file would peak
        # at several times that.
        spec = small_spec(len_mu=math.log(300), num_prompts=-(-20 * io.READ_CHUNK_LINES // 12))
        path = tmp_path / "t.jsonl"
        io.write_trace(path, generate(spec))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            loaded = io.read_trace(path)
            held, peak = (m - before for m in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        assert len(loaded) >= 20 * io.READ_CHUNK_LINES
        assert held <= 8 * sum(len(r.tokens) for r in loaded)
        assert peak <= 1.5 * held

    @pytest.mark.parametrize("record,reason", [
        ('"tokens":[1,2],"reward":NaN', "reward must be a finite number, got nan"),
        ('"tokens":[1,2],"reward":-Infinity', "reward must be a finite number, got -inf"),
        ('"tokens":[1,2147483648],"reward":1', "token ids must be integers in "
                                               "[0, 2147483647], got 2147483648"),
        ('"tokens":[1,-1],"reward":1', "token ids must be integers in [0, 2147483647], got -1"),
        ('"tokens":[1,1e300],"reward":1', "got 1e+300"),
        ('"tokens":[1,3.5],"reward":1', "got 3.5"),
        ('"tokens":"12","reward":1', "tokens must be a JSON array, got str"),
        ('"tokens":{"1":2},"reward":1', "tokens must be a JSON array, got dict"),
        ('"tokens":[1,2],"reward":1,"epoch":1.7', "epoch must be an integer, got 1.7"),
    ])
    def test_unindexable_records_rejected(self, record, reason):
        with pytest.raises(io.TraceFormatError, match=re.escape(reason)):
            io.parse_response_line('{"prompt_id":"p","epoch":1,' + record + "}")

    # A value of the right kind spelled as another: no writer emits these.
    @pytest.mark.parametrize("change,reason", [
        (("tokens", '[1,"2"]'), "token ids must be integers in [0, 2147483647], got '2'"),
        (("tokens", '[1,"-2"]'), "token ids must be integers in [0, 2147483647], got '-2'"),
        (("tokens", "[1,3.0]"), "token ids must be integers in [0, 2147483647], got 3.0"),
        (("tokens", "[true,1]"), "token ids must be integers in [0, 2147483647], got True"),
        (("tokens", '["x"]'), "token ids must be integers in [0, 2147483647], got 'x'"),
        (("tokens", "[null]"), "token ids must be integers in [0, 2147483647], got None"),
        (("epoch", "2.0"), "epoch must be an integer, got 2.0"),
        (("epoch", "true"), "epoch must be an integer, got True"),
        (("reward", '"1"'), "reward must be a finite number, got '1'"),
        (("reward", "false"), "reward must be a finite number, got False"),
        (("prompt_id", "7"), "prompt_id must be a string, got 7"),
    ])
    def test_other_spellings_rejected_by_both_readers(self, tmp_path, change, reason):
        # Both ways of reading a trace, the plain chunk and the line parser,
        # reject the record with the same message, naming its line.
        fields = {"prompt_id": '"p"', "epoch": "1", "tokens": "[1,2]", "reward": "1"}
        fields[change[0]] = change[1]
        path = tmp_path / "t.jsonl"
        path.write_text('{"prompt_id":"p","epoch":1,"tokens":[1,2],"reward":1}\n'
                        + "{" + ",".join(f'"{k}":{v}' for k, v in fields.items()) + "}\n")
        want = f"{path} line 2: bad trace record: {reason}"
        assert read_outcome(io.read_trace, path) == read_outcome(read_line_by_line, path) == want

    def test_empty_token_list_read_by_both_readers(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"prompt_id":"p","epoch":1,"tokens":[],"reward":1}\n'
                        '{"prompt_id":"p","epoch":1,"tokens":[1,2],"reward":0}\n')
        want = [("p", 1, [], 1.0), ("p", 1, [1, 2], 0.0)]
        assert read_outcome(io.read_trace, path) == read_outcome(read_line_by_line, path) == want

    def test_written_traces_read_without_the_line_parser(self, tmp_path):
        # What gen-trace writes, also with json's default ", " and ": "
        # separators, is plain: no chunk of it is parsed line by line.
        responses = generate(small_spec(num_prompts=40))
        path = tmp_path / "t.jsonl"
        io.write_trace(path, responses)
        spaced = tmp_path / "spaced.jsonl"
        spaced.write_text("".join(json.dumps(json.loads(line)) + "\n"
                                  for line in path.read_text().splitlines()))
        assert b", " in spaced.read_bytes()
        for p in (path, spaced):
            with mock.patch.object(io, "parse_response_line", side_effect=AssertionError):
                loaded = io.read_trace(p)
            assert [(r.prompt_id, r.epoch, r.tokens, r.reward) for r in loaded] == [
                (r.prompt_id, r.epoch, r.tokens, r.reward) for r in responses]

    def test_empty_responses_read_without_the_line_parser(self, tmp_path):
        # An empty token list, or one of blanks, holds no value: its chunk,
        # also one of only such lists, is still read in one numpy call.
        responses = generate(small_spec(num_prompts=40))
        for r in responses[:2] + responses[2::7]:
            r.tokens = array("i")
        path = tmp_path / "t.jsonl"
        io.write_trace(path, responses)
        text = path.read_text()
        assert text.count('"tokens":[]') == len(responses[:2] + responses[2::7])
        path.write_text(text.replace('"tokens":[]', '"tokens":[ \t]', 5))
        want = [(r.prompt_id, r.epoch, list(r.tokens), r.reward) for r in responses]
        for chunk in (2, io.READ_CHUNK_LINES):
            with mock.patch.object(io, "READ_CHUNK_LINES", chunk), \
                    mock.patch.object(io, "parse_response_line", side_effect=AssertionError):
                assert read_outcome(io.read_trace, path) == want
        assert read_outcome(read_line_by_line, path) == want

    @pytest.mark.parametrize("field,value,reason", [
        ("reward", math.nan, "reward must be a finite number, got nan"),
        ("reward", -math.inf, "reward must be a finite number, got -inf"),
        ("reward", "1", "reward must be a finite number, got '1'"),
        ("reward", True, "reward must be a finite number, got True"),
        ("reward", 10**400, "int too large to convert to float"),
        ("epoch", 2.0, "epoch must be an integer, got 2.0"),
        ("epoch", True, "epoch must be an integer, got True"),
        ("prompt_id", 7, "prompt_id must be a string, got 7"),
        ("tokens", array("i", [3, -2]), "token ids must be integers in [0, 2147483647], got -2"),
        ("tokens", array("i", [70000, -1]),
         "token ids must be integers in [0, 2147483647], got -1"),
    ])
    def test_writer_rejects_what_the_reader_rejects(self, tmp_path, field, value, reason):
        # The reader refuses "reward":NaN, so the writer does not write it,
        # nor anything else of the trace.
        responses = generate(small_spec())
        setattr(responses[5], field, value)
        path = tmp_path / "t.jsonl"
        path.write_text("before\n")
        with pytest.raises(ValueError, match=re.escape(f"response 5: {reason}")):
            io.write_trace(path, responses)
        assert path.read_text() == "before\n"
        assert list(tmp_path.iterdir()) == [path]

    def test_error_names_its_line_in_a_later_chunk(self, tmp_path):
        lines = [io.response_to_json(r) + "\n" for r in generate(small_spec(num_prompts=30))]
        assert len(lines) > 2 * io.READ_CHUNK_LINES + 5
        lines[3] = "\n"
        bad = 2 * io.READ_CHUNK_LINES + 5
        lines[bad - 1] = lines[bad - 1].replace('"tokens":[', '"tokens":[3.5,')
        path = tmp_path / "t.jsonl"
        path.write_text("".join(lines))
        with pytest.raises(io.TraceFormatError,
                           match=re.escape(f"{path} line {bad}: bad trace record: token ids must")):
            io.read_trace(path)

    @pytest.mark.parametrize("field", ["prompt_id", "tokens"])
    def test_non_utf8_byte_names_its_line(self, tmp_path, field):
        # The bad byte sits in the third chunk, in a string or in a token list.
        lines = [io.response_to_json(r) + "\n" for r in generate(small_spec(num_prompts=30))]
        bad = 2 * io.READ_CHUNK_LINES + 5
        line = lines[bad - 1].encode()
        line = line.replace(b'":"', b'":"\xff', 1) if field == "prompt_id" else \
            line.replace(b'"tokens":[', b'"tokens":[\xff', 1)
        column = line.index(b"\xff") + 1
        path = tmp_path / "t.jsonl"
        path.write_bytes("".join(lines[:bad - 1]).encode() + line
                         + "".join(lines[bad:]).encode())
        with pytest.raises(io.TraceFormatError,
                           match=re.escape(f"{path} line {bad}: byte 0xff at column "
                                           f"{column} is not UTF-8")):
            io.read_trace(path)

    def test_non_ascii_utf8_read_without_the_line_parser(self, tmp_path):
        responses = [Response(f"p\u00e9{i}", 1, [1, 2, i], 1.0) for i in range(5)]
        path = tmp_path / "t.jsonl"
        path.write_bytes("".join(json.dumps({"prompt_id": r.prompt_id, "epoch": 1,
                                             "tokens": list(r.tokens), "reward": 1.0},
                                            ensure_ascii=False) + "\n"
                                 for r in responses).encode())
        with mock.patch.object(io, "parse_response_line", side_effect=AssertionError):
            loaded = io.read_trace(path)
        assert [(r.prompt_id, list(r.tokens)) for r in loaded] == [
            (r.prompt_id, list(r.tokens)) for r in responses]

    def test_deeply_nested_record_rejected(self, tmp_path):
        # json gives up on it with a RecursionError, not a JSONDecodeError.
        path = tmp_path / "t.jsonl"
        path.write_text('{"prompt_id":"p","epoch":1,"tokens":[1],"reward":1}\n'
                        '{"prompt_id":"p","epoch":1,"tokens":[1],"reward":1,"x":'
                        + "[" * 100_000 + "]" * 100_000 + "}\n")
        with pytest.raises(io.TraceFormatError,
                           match=re.escape(f"{path} line 2: bad JSONL line: maximum recursion")):
            io.read_trace(path)

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

    # Finite specs whose longest implied response is over MAX_RESPONSE_LEN
    # tokens, each named by the key adding the most to its log-length.
    @pytest.mark.parametrize("overrides,key", [
        ({"len_mu": 800}, "len_mu"),
        ({"len_sigma": 300}, "len_sigma"),
        ({"len_mu": 30}, "len_mu"),
        ({"epochs": 40, "growth_mean": 1e6}, "growth_mean"),
        ({"length_jitter": 5.0}, "length_jitter"),
    ])
    def test_spec_over_the_length_cap_rejected_naming_the_key(self, overrides, key):
        with pytest.raises(ValueError, match=rf"^{key}=.* over the cap of {MAX_RESPONSE_LEN} "):
            small_spec(**overrides)

    def test_length_cap_is_inclusive(self):
        at_cap = dict(len_sigma=0.0, length_jitter=0.0, growth_mean=1.0)
        small_spec(len_mu=math.log(MAX_RESPONSE_LEN), **at_cap)
        with pytest.raises(ValueError, match="^len_mu="):
            small_spec(len_mu=math.nextafter(math.log(MAX_RESPONSE_LEN), math.inf), **at_cap)

    def test_draw_over_the_length_cap_raises_naming_the_key(self):
        spec = small_spec()
        spec.len_mu = 30.0  # set after the check at construction
        with pytest.raises(ValueError, match=r"^len_mu=30\.0 implies responses of up to"):
            generate(spec)

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


def read_line_by_line(path):
    """The trace reader with every line through `parse_response_line`."""
    responses = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if line:
                try:
                    responses.append(io.parse_response_line(line))
                except io.TraceFormatError as exc:
                    raise io.TraceFormatError(f"{path} line {lineno}: {exc}") from exc
    return responses


def read_outcome(reader, path):
    try:
        return [(r.prompt_id, r.epoch, list(r.tokens), r.reward) for r in reader(path)]
    except io.TraceFormatError as exc:
        return str(exc)


# Each is one change to a plain record. Some of them both readers accept
# (an empty token list or one of blanks, an escaped prompt id, a nested "tokens" beside the
# real one), the rest both reject: among them a token, epoch, reward or
# prompt id spelled as another JSON type ("2", 3.0, true, "epoch": 2.0).
RECORD_CHANGES = [("token", t) for t in [
    "007", "+1", "-1", "-0", "1e3", "3.0", "3.5", '"2"', "true", "null", "[1]",
    str(2**31), str(2**32 + 10**9), str(10**20), "1 2", "",
]] + [
    ("tokens", "[]"), ("tokens", "[ ]"), ("tokens", "[\t \t]"), ("tokens", "[,]"),
    ("tokens", "[\u00a0]"), ("tokens", "[1,]"), ("tokens", '"12"'), ("tokens", '{"1":2}'),
    ("tokens", 'null,"meta":[3]'), ("epoch", "1.7"), ("epoch", "2.0"), ("epoch", '"3"'),
    ("reward", "NaN"), ("reward", '"1"'), ("reward", "true"), ("prompt_id", "7"),
    ("prompt_id", json.dumps('q"tokens":[1')),
    ("prompt_id", json.dumps("caf\u00e9")), ("prompt_id", '"tokens"'),
    ("extra", ("tokens", "[5]")), ("extra", ("tokens", "null")),
    ("extra", ("meta", '{"tokens":[9]}')), ("extra", ("meta", "[1,2]")),
    ("extra", ("tok\\u0065ns", "null")), ("nest", None), ("wrap", None), ("after", " 1"),
]


@st.composite
def trace_record(draw, change=None):
    """One trace line: a plain record, written with or without json's
    default spaces, in any key order and with either line ending, and
    with `change` made to it."""
    comma = draw(st.sampled_from([",", ", "]))
    colon = draw(st.sampled_from([":", ": "]))
    tokens = draw(st.lists(st.integers(0, MAX_TOKEN).map(str), min_size=1, max_size=6))
    fields = {
        "prompt_id": json.dumps(draw(st.sampled_from(["p0", "p1"]))),
        "epoch": draw(st.sampled_from(["1", "2"])),
        "tokens": None,
        "reward": draw(st.sampled_from(["1", "0.5", "-2.25", "1e-3"])),
    }
    kind, value = change or (None, None)
    if kind == "token":
        tokens[draw(st.integers(0, len(tokens) - 1))] = value
    fields["tokens"] = "[" + comma.join(tokens) + "]"
    if kind in fields:
        fields[kind] = value
    if kind == "nest":
        fields["meta"] = "{" + f'"tokens"{colon}' + fields.pop("tokens") + "}"
    items = list(fields.items())
    if kind == "extra":
        items.insert(draw(st.integers(0, len(items))), value)
    if draw(st.booleans()):
        items = draw(st.permutations(items))
    line = "{" + comma.join(f'"{k}"{colon}{v}' for k, v in items) + "}"
    if kind == "wrap":
        line = f"[{line}]"
    if kind == "after":
        line += value
    return line + draw(st.sampled_from(["\n", "\r\n"]))


@st.composite
def trace_text(draw):
    """Up to ten plain records, up to two of them changed, and maybe a blank
    line."""
    lines = draw(st.lists(trace_record(), min_size=1, max_size=10))
    for _ in range(draw(st.integers(0, 2))):
        change = draw(st.sampled_from(RECORD_CHANGES))
        lines[draw(st.integers(0, len(lines) - 1))] = draw(trace_record(change))
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["\n", " \r\n"])))
    return "".join(lines)


# Records the json reader rejects though numpy, or a naive search for the
# token list, would read them: each needs one of the fast path's checks.
EDGE_RECORDS = [
    '{"prompt_id":"p","epoch":1,"tokens":[1,2],"reward":1,"tokens":null}',
    '{"prompt_id":"p","epoch":1,"tokens":[1,2],"reward":1,"tok\\u0065ns":null}',
    '{"prompt_id":"p","epoch":1,"tokens":null,"meta":[1,2],"reward":1}',
    '{"prompt_id":"p","epoch":1,"meta":{"tokens":[1,2]},"reward":1}',
    '[{"prompt_id":"p","epoch":1,"tokens":[1,2],"reward":1}]',
    '{"prompt_id":"p","epoch":1,"tokens":[1,2],"reward":1} 1',
    '{"prompt_id":"p","epoch":1,"tokens":[1,"2]"],"reward":1}',
    '{"prompt_id":"p","epoch":1,"tokens":[01,2],"reward":1}',
    '{"prompt_id":"p","epoch":1,"tokens":[1,+2],"reward":1}',
    '{"prompt_id":"p","epoch":1,"tokens":[1,2,],"reward":1}',
    '{"prompt_id":"p","epoch":1,"tokens":[1,,2],"reward":1}',
    '{"prompt_id":"p","epoch":1,"tokens":[1 2],"reward":1}',
    '{"prompt_id":"p","epoch":1,"tokens":[5294967296],"reward":1}',
    '{"prompt_id":"p","epoch":1,"tokens":[100000000000000000000],"reward":1}',
]


@pytest.mark.parametrize("record", EDGE_RECORDS)
def test_edge_records_rejected_as_by_the_line_parser(tmp_path, record):
    plain = '{"prompt_id":"p","epoch":1,"tokens":[1,2],"reward":1}\n'
    path = tmp_path / "t.jsonl"
    path.write_text(plain + record + "\n")
    want = read_outcome(read_line_by_line, path)
    assert isinstance(want, str) and f"{path} line 2: " in want
    assert read_outcome(io.read_trace, path) == want


@settings(max_examples=150, deadline=None)
@given(text=trace_text(), chunk=st.sampled_from([1, 3, 128]))
def test_read_trace_matches_the_line_parser(text, chunk):
    """Whatever the chunk size, reading a trace gives the records, or the
    error, that parsing it line by line gives."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.jsonl"
        path.write_bytes(text.encode("utf-8"))
        with mock.patch.object(io, "READ_CHUNK_LINES", chunk):
            got = read_outcome(io.read_trace, path)
        assert got == read_outcome(read_line_by_line, path)


# Token ids around the digit table's end, 2**16, and empty lists weigh more
# than they would drawn evenly from [0, MAX_TOKEN].
written_tokens = st.one_of(
    st.just([]),
    st.lists(st.one_of(st.integers(0, MAX_TOKEN), st.integers(0, 2**16 + 10),
                       st.sampled_from([0, 9, 10, 65535, 65536, MAX_TOKEN])), max_size=12),
)
written_prompt_ids = st.one_of(
    st.text(max_size=6),
    st.lists(st.sampled_from(['"', "\\", "/", "p", "\u00e9", "\u2028", "\U0001f600", "\x00",
                              "\x7f"]), max_size=6).map("".join),
)
written_rewards = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, 5e-324, -2.5e-310, 1e16, 1.5]),
    st.integers(-2**70, 2**70),
)


@settings(max_examples=300, deadline=None)
@given(responses=st.lists(st.builds(Response, written_prompt_ids, st.integers(-2**40, 2**40),
                                    written_tokens, written_rewards),
                          min_size=1, max_size=6))
def test_written_lines_are_json_compact_and_read_back(responses):
    """Every line is json's compact encoding of its record, and reading the
    written trace gives the responses back."""
    for r in responses:
        record = {"prompt_id": r.prompt_id, "epoch": r.epoch, "tokens": list(r.tokens),
                  "reward": r.reward}
        assert io.response_to_json(r) == json.dumps(record, separators=(",", ":"))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.jsonl"
        io.write_trace(path, responses)
        loaded = io.read_trace(path)
    assert [(r.prompt_id, r.epoch, r.tokens, float(r.reward).hex()) for r in loaded] == [
        (r.prompt_id, r.epoch, r.tokens, float(r.reward).hex()) for r in responses]
