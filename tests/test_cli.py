from __future__ import annotations

import json
import math
from array import array

import pytest

from rhymesim import io as rio
from rhymesim.cli import EXIT_CONFIG, EXIT_INFEASIBLE, EXIT_IO, EXIT_OK, load_run_config, main
from rhymesim.history import Response
from rhymesim.sim import Policy, run
from rhymesim.tracegen import Trace, TraceSpec, generate, token_similarity_replay


@pytest.fixture
def workspace(tmp_path):
    spec = {
        "num_prompts": 10, "epochs": 3, "group_size": 4,
        "len_mu": math.log(120), "len_sigma": 0.7, "similarity": 0.9, "seed": 5,
    }
    spec_path = tmp_path / "tspec.json"
    spec_path.write_text(json.dumps(spec))
    cluster = {
        "cluster.rollout_workers": 8, "cluster.reward_workers": 4, "cluster.n_groups": 4,
        "cost.per_iter_base": 0.004, "cost.per_iter_batch": 0.0008,
    }
    cluster_path = tmp_path / "cluster.json"
    cluster_path.write_text(json.dumps(cluster))
    return tmp_path, spec_path, cluster_path


def gen(tmp_path, spec_path, seed=None):
    out = tmp_path / "t.jsonl"
    argv = ["gen-trace", "--spec", str(spec_path), "--out", str(out)]
    if seed is not None:
        argv += ["--seed", str(seed)]
    assert main(argv) == EXIT_OK
    return out


class TestGenTrace:
    def test_round_trip(self, workspace):
        tmp_path, spec_path, _ = workspace
        out = gen(tmp_path, spec_path)
        trace = Trace(rio.read_trace(out))
        assert trace.epochs == [1, 2, 3]

    def test_seed_override_changes_bytes(self, workspace):
        tmp_path, spec_path, _ = workspace
        a = gen(tmp_path, spec_path, seed=1).read_bytes()
        b = gen(tmp_path, spec_path, seed=2).read_bytes()
        assert a != b

    def test_unknown_spec_key_rejected(self, workspace, capsys):
        tmp_path, spec_path, _ = workspace
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"num_prompts": 4, "epochs": 1, "wat": 1}))
        assert main(["gen-trace", "--spec", str(bad), "--out", str(tmp_path / "x.jsonl")]) == EXIT_CONFIG
        assert "wat" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [
        ("num_prompts", 2.5), ("epochs", 3.0), ("group_size", 2.5), ("vocab_size", 100.5),
        ("seed", 5.5), ("seed", -1), ("group_size", True), ("similarity", "0.9"),
        ("similarity_schedule", [0.5, 2.0, -1.0]), ("similarity_schedule", [0.5, math.nan, 0.9]),
        ("similarity_schedule", [0.5, 0.9, math.inf]), ("length_jitter", -0.5),
        ("high_reward_frac", 3.0), ("high_reward_frac", -0.1), ("len_mu", math.nan),
        ("len_mu", -math.inf), ("len_sigma", math.nan), ("growth_mean", math.nan),
        ("growth_mean", math.inf), ("burst_mean", math.nan), ("length_jitter", math.inf),
        # Finite, but implying responses over tracegen.MAX_RESPONSE_LEN tokens:
        # an overflow, a numpy "array is too big", a 86 TiB allocation, and
        # medians that grow a millionfold each epoch.
        ("len_mu", 800), ("len_sigma", 300), ("len_mu", 30), ("growth_mean", 1e6),
    ])
    def test_bad_value_exits_two_naming_the_key(self, workspace, key, value, capsys):
        tmp_path, spec_path, _ = workspace
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**json.loads(spec_path.read_text()), key: value}))
        out = tmp_path / "x.jsonl"
        assert main(["gen-trace", "--spec", str(bad), "--out", str(out)]) == EXIT_CONFIG
        assert key in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("seed", ["-3", "-1"])
    def test_negative_seed_flag_exits_two_naming_it(self, workspace, seed, capsys):
        tmp_path, spec_path, _ = workspace
        out = tmp_path / "x.jsonl"
        assert main(["gen-trace", "--spec", str(spec_path), "--out", str(out),
                     "--seed", seed]) == EXIT_CONFIG
        assert "--seed" in capsys.readouterr().err
        assert not out.exists()


class TestAnalyze:
    def test_rank_csv(self, workspace):
        tmp_path, spec_path, _ = workspace
        trace_path = gen(tmp_path, spec_path)
        out = tmp_path / "rank.csv"
        assert main(["analyze", "rank", "--trace", str(trace_path), "--groups", "4",
                     "--out", str(out)]) == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0].startswith("epoch_prev,epoch_cur,accurate_pct")
        assert len(lines) >= 3

    def test_similarity_matches_library(self, workspace, capsys):
        tmp_path, spec_path, _ = workspace
        trace_path = gen(tmp_path, spec_path)
        assert main(["analyze", "similarity", "--trace", str(trace_path),
                     "--prefix", "3", "--epochs", "1,2"]) == EXIT_OK
        row = capsys.readouterr().out.splitlines()[-1].split(",")
        trace = Trace(rio.read_trace(trace_path))
        expected = token_similarity_replay(trace, (1, 2), 3)
        assert float(row[2]) == pytest.approx(expected.acceptance, abs=1e-6)

    @pytest.mark.parametrize("groups", ["0", "1", "-1"])
    def test_rank_bad_group_count_exits_two(self, workspace, groups, capsys):
        tmp_path, spec_path, _ = workspace
        trace_path = gen(tmp_path, spec_path)
        assert main(["analyze", "rank", "--trace", str(trace_path),
                     "--groups", groups]) == EXIT_CONFIG
        assert "groups" in capsys.readouterr().err

    @pytest.mark.parametrize("prefix", ["0", "-1"])
    def test_similarity_bad_prefix_exits_two_naming_it(self, workspace, prefix, capsys):
        tmp_path, spec_path, _ = workspace
        trace_path = gen(tmp_path, spec_path)
        out = tmp_path / "similarity.csv"
        assert main(["analyze", "similarity", "--trace", str(trace_path),
                     "--prefix", prefix, "--out", str(out)]) == EXIT_CONFIG
        assert "--prefix" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("edit,code", [({"tokens": array("i")}, EXIT_OK),
                                           ({"reward": math.nan}, EXIT_CONFIG)])
    def test_similarity_reads_an_empty_previous_response_and_rejects_nan(
            self, workspace, edit, code, capsys):
        tmp_path, spec_path, _ = workspace
        responses = rio.read_trace(gen(tmp_path, spec_path))
        first = responses[0]
        assert first.epoch == 1
        for key, value in edit.items():
            setattr(first, key, value)
        bad = tmp_path / "bad.jsonl"
        # write_trace refuses a NaN reward, so json writes the first record.
        rio.write_trace(bad, responses[1:])
        record = {"prompt_id": first.prompt_id, "epoch": first.epoch,
                  "tokens": list(first.tokens), "reward": first.reward}
        bad.write_text(json.dumps(record) + "\n" + bad.read_text())
        assert main(["analyze", "similarity", "--trace", str(bad), "--epochs", "1,2",
                     "--out", str(tmp_path / "s.csv")]) == code
        assert ("error:" in capsys.readouterr().err) == (code != EXIT_OK)

    def test_tree_stats_json(self, workspace):
        tmp_path, spec_path, _ = workspace
        trace_path = gen(tmp_path, spec_path)
        out = tmp_path / "stats.json"
        assert main(["analyze", "tree-stats", "--trace", str(trace_path),
                     "--out", str(out)]) == EXIT_OK
        stats = rio.read_json(out)
        assert stats["prompt_count"] == 10
        assert stats["total_nodes"] <= 2 * stats["total_tokens"] + 1
        assert set(stats) == {"epoch", "prompt_count", "total_nodes", "total_tokens",
                              "index_bytes"}
        # One transition dict per state, and a float and some int objects
        # per state and per transition: 476 B/token measured, plus 10.
        assert 0 < stats["index_bytes"] <= 486 * stats["total_tokens"]

    @pytest.mark.parametrize("argv", [
        ["rank", "--epochs", "3,4"],
        ["similarity", "--epochs", "3,4"],
        ["tree-stats", "--epoch", "9"],
    ])
    def test_missing_epoch_exits_two(self, workspace, argv, capsys):
        tmp_path, spec_path, _ = workspace
        trace_path = gen(tmp_path, spec_path)
        assert main(["analyze", argv[0], "--trace", str(trace_path), *argv[1:]]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"trace has no epoch {argv[-1].split(',')[-1]}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["rank", "similarity"])
    @pytest.mark.parametrize("epochs", ["a,b", "1", "1,2,3"])
    def test_bad_epoch_pair_exits_two_naming_the_flag(self, workspace, command, epochs, capsys):
        tmp_path, spec_path, _ = workspace
        trace_path = gen(tmp_path, spec_path)
        out = tmp_path / "x.csv"
        assert main(["analyze", command, "--trace", str(trace_path), "--epochs", epochs,
                     "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "--epochs" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("text", ["", "\n \n"])
    def test_tree_stats_of_a_trace_without_records_exits_two(self, tmp_path, text, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text(text)
        out = tmp_path / "stats.json"
        assert main(["analyze", "tree-stats", "--trace", str(empty),
                     "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"{empty} holds no trace records" in err and "Traceback" not in err
        assert not out.exists()


def step_boundary(events_path, step):
    """The step_boundary event of `step` in a written events log."""
    for line in events_path.read_text().splitlines():
        event = json.loads(line)
        if event["kind"] == "step_boundary" and event["step"] == step:
            return event
    raise AssertionError(f"{events_path} has no step_boundary of step {step}")


class TestPlanAlloc:
    """plan-alloc prints the plan a histopipe_two_tier run makes for a step."""

    # The exact plan JSON of one step of a run without speculation and one of
    # a run with it, each equal in allocation and workers to that step's
    # step_boundary event. Without speculation before it, step 3 would plan
    # d = 0.5746249999999999.
    PINNED_STEP2 = ('{\n  "allocation": {\n    "d": 0.7582666666666668,\n    "feasible": true,\n'
                    '    "per_group_workers": [\n      1,\n      1,\n      2,\n      4\n    ],\n'
                    '    "t0": 0.7\n  },\n  "schema": 2,\n  "step": 2,\n  "workers": {\n'
                    '    "0": 3,\n    "1": 3,\n    "2": 3,\n    "3": 3,\n    "4": 2,\n'
                    '    "5": 2,\n    "6": 1,\n    "7": 0\n  }\n}\n')
    PINNED_SPEC_STEP3 = ('{\n  "allocation": {\n    "d": 0.342458970923886,\n    "feasible": true,\n'
                         '    "per_group_workers": [\n      1,\n      1,\n      2,\n      4\n    ],\n'
                         '    "t0": 0.7\n  },\n  "schema": 2,\n  "step": 3,\n  "workers": {\n'
                         '    "0": 0,\n    "1": 1,\n    "2": 2,\n    "3": 2,\n    "4": 3,\n'
                         '    "5": 3,\n    "6": 3,\n    "7": 3\n  }\n}\n')

    @pytest.mark.parametrize("speculation,step", [(False, 2), (True, 3)])
    def test_plan_pinned_and_equal_to_the_runs_step_boundary(self, workspace, speculation,
                                                             step):
        tmp_path, spec_path, cluster_path = workspace
        trace_path = gen(tmp_path, spec_path)
        flags = ["--speculation"] if speculation else []
        run_path = tmp_path / "run.json"
        assert main(["run-sim", "--trace", str(trace_path), "--cluster", str(cluster_path),
                     "--policy", "histopipe_two_tier", *flags,
                     "--out", str(run_path)]) == EXIT_OK
        out = tmp_path / "plan.json"
        assert main(["plan-alloc", "--trace", str(trace_path), "--cluster", str(cluster_path),
                     "--step", str(step), *flags, "--out", str(out)]) == EXIT_OK
        assert out.read_text() == (self.PINNED_SPEC_STEP3 if speculation else self.PINNED_STEP2)
        plan = rio.read_json(out)
        boundary = step_boundary(tmp_path / "run.events.jsonl", step)
        assert (plan["allocation"], plan["workers"]) == (boundary["allocation"],
                                                         boundary["workers"])

    def test_t_train_floors_t0(self, workspace):
        tmp_path, spec_path, cluster_path = workspace
        trace_path = gen(tmp_path, spec_path)
        out = tmp_path / "plan.json"
        assert main(["plan-alloc", "--trace", str(trace_path), "--cluster", str(cluster_path),
                     "--step", "2", "--t-train", "5", "--speculation",
                     "--out", str(out)]) == EXIT_OK
        assert rio.read_json(out)["allocation"]["t0"] == 5.0

    @pytest.mark.parametrize("step", ["1", "4", "0", "-1"])
    def test_step_without_a_plan_exits_two(self, workspace, step, capsys):
        tmp_path, spec_path, cluster_path = workspace
        trace_path = gen(tmp_path, spec_path)
        out = tmp_path / "plan.json"
        assert main(["plan-alloc", "--trace", str(trace_path), "--cluster", str(cluster_path),
                     "--step", step, "--speculation", "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"step {step} has no plan" in err and "Traceback" not in err
        assert not out.exists()

    def test_step_with_fewer_prompts_than_groups_exits_two(self, workspace, capsys):
        # A run rolls such a step out round robin; it has no plan to print.
        tmp_path, spec_path, cluster_path = workspace
        trace_path = gen(tmp_path, spec_path)
        rio.write_trace(trace_path, [r for r in rio.read_trace(trace_path)
                                     if r.epoch != 2 or r.prompt_id == "p0000"])
        out = tmp_path / "plan.json"
        assert main(["plan-alloc", "--trace", str(trace_path), "--cluster", str(cluster_path),
                     "--step", "2", "--out", str(out)]) == EXIT_CONFIG
        assert "fewer prompts (1) than groups (4)" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("t_train", ["nan", "inf", "-1", "x"])
    def test_unplannable_t_train_exits_two(self, workspace, t_train, capsys):
        tmp_path, spec_path, cluster_path = workspace
        trace_path = gen(tmp_path, spec_path)
        out = tmp_path / "plan.json"
        assert main(["plan-alloc", "--trace", str(trace_path), "--cluster", str(cluster_path),
                     "--step", "2", "--t-train", t_train, "--out", str(out)]) == EXIT_CONFIG
        assert "argument --t-train:" in capsys.readouterr().err
        assert not out.exists()

    def test_trace_with_an_epoch_missing_exits_two(self, workspace, capsys):
        tmp_path, spec_path, cluster_path = workspace
        trace_path = gen(tmp_path, spec_path)
        rio.write_trace(trace_path, [r for r in rio.read_trace(trace_path) if r.epoch != 2])
        assert main(["plan-alloc", "--trace", str(trace_path), "--cluster", str(cluster_path),
                     "--step", "3", "--speculation"]) == EXIT_CONFIG
        assert "contiguous" in capsys.readouterr().err

    def test_missing_trace_exits_four(self, workspace):
        tmp_path, _, cluster_path = workspace
        assert main(["plan-alloc", "--trace", str(tmp_path / "nope.jsonl"),
                     "--cluster", str(cluster_path), "--step", "2"]) == EXIT_IO

    def test_infeasible_exits_three_as_the_run_does(self, tmp_path, capsys):
        # On one worker per group, the middle group's one long member cannot
        # finish by the gradient the longest group sets.
        lens = {"a": [10, 10, 10], "b": [20, 20, 2000], "c": [100, 100, 100]}
        trace_path = tmp_path / "t.jsonl"
        rio.write_trace(trace_path, [Response(pid, epoch, array("i", range(n)), 1.0)
                                     for epoch in (1, 2) for pid, group in lens.items()
                                     for n in group])
        cluster_path = tmp_path / "cluster.json"
        cluster_path.write_text(json.dumps({"cluster.rollout_workers": 3,
                                            "cluster.reward_workers": 1,
                                            "cluster.n_groups": 3}))
        out = tmp_path / "plan.json"
        assert main(["plan-alloc", "--trace", str(trace_path), "--cluster", str(cluster_path),
                     "--step", "2", "--out", str(out)]) == EXIT_INFEASIBLE
        assert "step 2: no feasible allocation" in capsys.readouterr().err
        assert not out.exists()
        assert main(["run-sim", "--trace", str(trace_path), "--cluster", str(cluster_path),
                     "--policy", "histopipe_two_tier",
                     "--out", str(tmp_path / "run.json")]) == EXIT_INFEASIBLE


class TestRunSim:
    def test_run_and_report_round_trip(self, workspace):
        tmp_path, spec_path, cluster_path = workspace
        trace_path = gen(tmp_path, spec_path)
        run_a = tmp_path / "a.json"
        run_b = tmp_path / "b.json"
        assert main(["run-sim", "--trace", str(trace_path), "--cluster", str(cluster_path),
                     "--policy", "colocated", "--speculation", "--out", str(run_a)]) == EXIT_OK
        assert main(["run-sim", "--trace", str(trace_path), "--cluster", str(cluster_path),
                     "--policy", "histopipe_two_tier", "--speculation",
                     "--out", str(run_b)]) == EXIT_OK
        csv_out = tmp_path / "cmp.csv"
        assert main(["report", "--runs", str(run_a), str(run_b),
                     "--csv", str(csv_out)]) == EXIT_OK
        lines = csv_out.read_text().splitlines()
        assert len(lines) == 3
        base_row = lines[1].split(",")
        assert float(base_row[3]) == 1.0  # first run normalizes to itself
        payload = rio.read_json(run_b)
        assert payload["schema"] == 4 and "seed" not in payload and "timeline" not in payload
        assert sorted(payload["policy_config"]) == ["migration", "oversample_pct", "speculation"]

    def test_report_timeline_reads_events_log_beside_run(self, workspace, monkeypatch, capsys):
        # run-sim records events_path relative to the directory it ran in;
        # report finds the log beside the run JSON from any directory.
        tmp_path, spec_path, cluster_path = workspace
        trace_path = gen(tmp_path, spec_path)
        runs = tmp_path / "runs"
        runs.mkdir()
        monkeypatch.chdir(tmp_path)
        assert main(["run-sim", "--trace", str(trace_path), "--cluster", str(cluster_path),
                     "--policy", "colocated", "--speculation", "--out", "runs/a.json"]) == EXIT_OK
        cluster, cost = load_run_config(str(cluster_path))
        result = run(Trace(rio.read_trace(trace_path)), cluster,
                     Policy("colocated", speculation=True), cost)
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)
        timeline = tmp_path / "tl.csv"
        assert main(["report", "--runs", str(runs / "a.json"), "--csv", str(tmp_path / "c.csv"),
                     "--timeline", str(timeline)]) == EXIT_OK
        rows = timeline.read_text().splitlines()
        assert rows[0] == "run,worker_id,start,end,activity"
        assert rows[1:] == [f"a.json,{w},{s!r},{e!r},{k}" for w, s, e, k in result.timeline]
        assert any(r.endswith(",rollout") for r in rows)

        (runs / "a.events.jsonl").unlink()
        capsys.readouterr()
        # Neither output is written: every timeline is derived first.
        assert main(["report", "--runs", str(runs / "a.json"), "--csv", str(tmp_path / "c2.csv"),
                     "--timeline", str(tmp_path / "tl2.csv")]) == EXIT_IO
        assert "a.events.jsonl" in capsys.readouterr().err
        assert not (tmp_path / "tl2.csv").exists() and not (tmp_path / "c2.csv").exists()

    @pytest.mark.parametrize("bad_line", [
        "{not json", '{"seq": 1}',
        # The envelope of an event, without the fields its kind carries.
        '{"time": 99.0, "seq": 999999, "kind": "rollout_finish"}',
        '{"time": 99.0, "seq": 999999, "kind": "no_such_kind"}',
        # JSON, but not an object.
        "[1]", "3", "null", '"x"',
        # Every field of its kind, one of them of a JSON type the kind's
        # field does not take.
        '{"kind": "run_end", "rollout_workers": 8, "seq": 999999, "time": "x"}',
        '{"allocation": null, "kind": "step_boundary", "policy": "streaming", '
        '"replay": {"bogus": 1}, "seq": 999999, "step": 4, "time": 99.0, "workers": {}}',
        '{"batch": 1, "duration": 1.0, "kind": "train_done", "publishes_version": 5, '
        '"seq": 999999, "start": 98.0, "step": 4, "switch": ["a", "b"], "time": 99.0}',
        '{"kind": "run_end", "rollout_workers": 8.5, "seq": 999999, "time": 99.0}',
        '{"kind": "share_end", "seq": 999999, "step": 1, "time": 99.0, "worker": true}',
        # An int no float holds.
        '{"kind": "run_end", "rollout_workers": 8, "seq": 999999, "time": 1' + "0" * 400 + "}",
        # A field its kind does not have.
        '{"bogus": 1, "kind": "run_end", "rollout_workers": 8, "seq": 999999, "time": 99.0}',
    ])
    def test_report_timeline_bad_events_line_is_io_error(self, workspace, capsys, bad_line):
        tmp_path, spec_path, cluster_path = workspace
        trace_path = gen(tmp_path, spec_path)
        run_path = tmp_path / "r.json"
        assert main(["run-sim", "--trace", str(trace_path), "--cluster", str(cluster_path),
                     "--policy", "streaming", "--speculation", "--out", str(run_path)]) == EXIT_OK
        events_path = tmp_path / "r.events.jsonl"
        lines = events_path.read_text().count("\n")
        with open(events_path, "a", encoding="utf-8") as fh:
            fh.write(bad_line + "\n")
        capsys.readouterr()
        assert main(["report", "--runs", str(run_path), "--csv", str(tmp_path / "c.csv"),
                     "--timeline", str(tmp_path / "tl.csv")]) == EXIT_IO
        assert f"r.events.jsonl line {lines + 1} " in capsys.readouterr().err
        assert not (tmp_path / "tl.csv").exists() and not (tmp_path / "c.csv").exists()

    def test_report_timeline_overlapping_shares_is_io_error(self, workspace, capsys):
        # Every line is an event record, but worker 0's first share now ends
        # when its second does, so the two overlap.
        tmp_path, spec_path, cluster_path = workspace
        trace_path = gen(tmp_path, spec_path)
        run_path = tmp_path / "r.json"
        assert main(["run-sim", "--trace", str(trace_path), "--cluster", str(cluster_path),
                     "--policy", "streaming", "--out", str(run_path)]) == EXIT_OK
        events_path = tmp_path / "r.events.jsonl"
        records = [json.loads(line) for line in events_path.read_text().splitlines()]
        first, second = [e for e in records if e["kind"] == "share_end" and e["worker"] == 0][:2]
        first["time"] = second["time"]
        events_path.write_text("".join(json.dumps(e, sort_keys=True) + "\n" for e in records))
        capsys.readouterr()
        assert main(["report", "--runs", str(run_path), "--csv", str(tmp_path / "c.csv"),
                     "--timeline", str(tmp_path / "tl.csv")]) == EXIT_IO
        err = capsys.readouterr().err
        assert "r.events.jsonl is not the events log of one run" in err
        assert "overlapping activities on worker 0" in err
        assert not (tmp_path / "tl.csv").exists() and not (tmp_path / "c.csv").exists()

    # The log cut before its run_end, then left so or given one whose run
    # had no rollout workers, or more than the steps' plans map.
    @pytest.mark.parametrize("run_end", [
        "", '{"kind": "run_end", "rollout_workers": 0, "seq": 999999, "time": 99.0}\n',
        '{"kind": "run_end", "rollout_workers": 1000000, "seq": 999999, "time": 99.0}\n',
    ], ids=["cut", "zero_workers", "forged_workers"])
    def test_report_timeline_log_cut_before_run_end_is_io_error(self, workspace, capsys,
                                                                run_end):
        tmp_path, spec_path, cluster_path = workspace
        trace_path = gen(tmp_path, spec_path)
        run_path = tmp_path / "r.json"
        assert main(["run-sim", "--trace", str(trace_path), "--cluster", str(cluster_path),
                     "--policy", "colocated", "--speculation", "--out", str(run_path)]) == EXIT_OK
        events_path = tmp_path / "r.events.jsonl"
        lines = events_path.read_text().splitlines(keepends=True)
        assert '"run_end"' in lines[-1]
        events_path.write_text("".join(lines[:-1]) + run_end)
        capsys.readouterr()
        assert main(["report", "--runs", str(run_path), "--csv", str(tmp_path / "c.csv"),
                     "--timeline", str(tmp_path / "tl.csv")]) == EXIT_IO
        assert "r.events.jsonl is not the events log of one run" in capsys.readouterr().err
        assert not (tmp_path / "tl.csv").exists() and not (tmp_path / "c.csv").exists()

    @pytest.mark.parametrize("edit,key", [
        ("not json", None), ("a list", None), ("no metrics", "metrics"),
        ("no bubble_fraction", "bubble_fraction"), ("a text share", "stage_shares.train"),
    ])
    def test_report_of_a_malformed_run_exits_two_naming_it(self, workspace, capsys, edit, key):
        tmp_path, spec_path, cluster_path = workspace
        trace_path = gen(tmp_path, spec_path)
        good = tmp_path / "good.json"
        assert main(["run-sim", "--trace", str(trace_path), "--cluster", str(cluster_path),
                     "--policy", "streaming", "--out", str(good)]) == EXIT_OK
        payload = rio.read_json(good)
        if edit == "no metrics":
            del payload["metrics"]
        elif edit == "no bubble_fraction":
            del payload["metrics"]["bubble_fraction"]
        elif edit == "a text share":
            payload["metrics"]["stage_shares"]["train"] = "0.5"
        bad = tmp_path / "bad.json"
        bad.write_text({"not json": "{not json", "a list": "[1, 2]"}.get(edit)
                       or json.dumps(payload))
        capsys.readouterr()
        csv_out, timeline = tmp_path / "c.csv", tmp_path / "tl.csv"
        assert main(["report", "--runs", str(good), str(bad), "--csv", str(csv_out),
                     "--timeline", str(timeline)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert str(bad) in err and (key is None or key in err)
        assert not csv_out.exists() and not timeline.exists()

    def test_identical_runs_identical_reports(self, workspace):
        tmp_path, spec_path, cluster_path = workspace
        trace_path = gen(tmp_path, spec_path)
        outs = []
        for name in ("r1.json", "r2.json"):
            out = tmp_path / name
            assert main(["run-sim", "--trace", str(trace_path), "--cluster", str(cluster_path),
                         "--policy", "streaming", "--speculation", "--out", str(out)]) == EXIT_OK
            outs.append(out)
        a = json.loads(outs[0].read_text())
        b = json.loads(outs[1].read_text())
        assert a["metrics"] == b["metrics"]
        assert (tmp_path / "r1.events.jsonl").read_bytes() == (tmp_path / "r2.events.jsonl").read_bytes()

    @pytest.mark.parametrize("speculation", ["--speculation", "--no-speculation"])
    @pytest.mark.parametrize("edit", ["string token", "nan reward", "token 2**31",
                                      "negative token"])
    def test_unindexable_record_rejected_before_the_run(self, workspace, capsys, edit,
                                                        speculation):
        # A record the suffix index cannot hold exits 2 when the trace is
        # read, with or without speculation: before the run starts, and
        # naming the trace line.
        tmp_path, spec_path, cluster_path = workspace
        trace_path = gen(tmp_path, spec_path)
        records = [json.loads(line) for line in trace_path.read_text().splitlines()]
        bad = records[len(records) // 2]
        if edit == "string token":
            bad["tokens"][0] = "2"
        elif edit == "nan reward":
            bad["reward"] = math.nan
        elif edit == "token 2**31":
            bad["tokens"][-1] = 2**31
        else:
            bad["tokens"][0] = -1
        trace_path.write_text("".join(json.dumps(r) + "\n" for r in records))
        out = tmp_path / "x.json"
        capsys.readouterr()
        assert main(["run-sim", "--trace", str(trace_path), "--cluster", str(cluster_path),
                     "--policy", "streaming", speculation, "--out", str(out)]) == EXIT_CONFIG
        assert f"t.jsonl line {len(records) // 2 + 1}: bad trace record" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("policy", ["streaming", "histopipe_two_tier"])
    def test_empty_response_runs_with_speculation(self, workspace, policy):
        # An empty response is a record like any other: it is indexed for the
        # next epoch and finishes once, in zero iterations.
        tmp_path, spec_path, cluster_path = workspace
        trace_path = gen(tmp_path, spec_path)
        records = [json.loads(line) for line in trace_path.read_text().splitlines()]
        empty = next(r for r in records if r["epoch"] == 2)
        empty["tokens"] = []
        trace_path.write_text("".join(json.dumps(r) + "\n" for r in records))
        out = tmp_path / "x.json"
        assert main(["run-sim", "--trace", str(trace_path), "--cluster", str(cluster_path),
                     "--policy", policy, "--speculation", "--out", str(out)]) == EXIT_OK
        finishes = [json.loads(line) for line in (tmp_path / "x.events.jsonl").open()
                    if '"rollout_finish"' in line]
        assert len(finishes) == len(records)
        sample = f"{empty['prompt_id']}/e2/0"
        assert [(e["iterations"], e["tokens"]) for e in finishes
                if e["sample"] == sample] == [(0, 0)]

    def test_non_utf8_trace_exits_two_naming_the_line(self, workspace, capsys):
        tmp_path, spec_path, cluster_path = workspace
        trace_path = gen(tmp_path, spec_path)
        lines = trace_path.read_bytes().splitlines(keepends=True)
        lines[1] = lines[1].replace(b'"prompt_id":"', b'"prompt_id":"\xff', 1)
        trace_path.write_bytes(b"".join(lines))
        out = tmp_path / "x.json"
        capsys.readouterr()
        assert main(["run-sim", "--trace", str(trace_path), "--cluster", str(cluster_path),
                     "--policy", "streaming", "--out", str(out)]) == EXIT_CONFIG
        assert "t.jsonl line 2: byte 0xff at column" in capsys.readouterr().err
        assert not out.exists()

    def test_trace_without_records_exits_two(self, workspace, capsys):
        tmp_path, _, cluster_path = workspace
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        out = tmp_path / "x.json"
        assert main(["run-sim", "--trace", str(empty), "--cluster", str(cluster_path),
                     "--policy", "streaming", "--out", str(out)]) == EXIT_CONFIG
        assert f"{empty} holds no trace records" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_trace_io_error(self, workspace):
        tmp_path, _, cluster_path = workspace
        assert main(["run-sim", "--trace", str(tmp_path / "nope.jsonl"),
                     "--cluster", str(cluster_path), "--policy", "colocated",
                     "--out", str(tmp_path / "x.json")]) == EXIT_IO

    def test_unknown_config_key_rejected(self, workspace):
        tmp_path, spec_path, cluster_path = workspace
        trace_path = gen(tmp_path, spec_path)
        bad = tmp_path / "badcluster.json"
        bad.write_text(json.dumps({"cluster.rollout_workers": 4, "cluster.reward_workers": 2,
                                   "cluster.n_groups": 2, "turbo.mode": True}))
        assert main(["run-sim", "--trace", str(trace_path), "--cluster", str(bad),
                     "--policy", "colocated", "--out", str(tmp_path / "x.json")]) == EXIT_CONFIG

    @pytest.mark.parametrize("values", [
        {"cost.per_iter_base": 0, "cost.per_iter_batch": 0},
        {"cost.per_iter_batch": -0.0008},
        {"cost.reward_time": -0.01},
        {"cost.context_switch_frac": math.inf},
        {"cluster.weight_propagation_delay": -0.1},
        # A value of the wrong JSON type fails with its key named, not deep
        # inside the run.
        {"cluster.rollout_workers": 8.5}, {"cluster.reward_workers": 2.5},
        {"cluster.n_groups": 2.5}, {"cluster.rollout_workers": 8.0},
        {"cluster.n_groups": True}, {"cluster.reward_workers": "4"},
        {"cost.per_iter_base": "0.02"}, {"cost.train_base": True},
    ])
    def test_bad_value_exits_two_naming_the_key(self, workspace, values, capsys):
        # A zero iteration time would never let the run end: the time limit
        # turns that into a failure.
        tmp_path, spec_path, cluster_path = workspace
        trace_path = gen(tmp_path, spec_path)
        cfg = {**json.loads(cluster_path.read_text()), **values}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        out = tmp_path / "x.json"
        assert main(["run-sim", "--trace", str(trace_path), "--cluster", str(bad),
                     "--policy", "histopipe_two_tier", "--out", str(out)]) == EXIT_CONFIG
        assert list(values)[-1].split(".")[1] in capsys.readouterr().err
        assert not out.exists()

    def test_fixed_step_overhead_config_rejected(self, workspace, capsys):
        # The simulator never charged it, so the key is gone.
        tmp_path, spec_path, cluster_path = workspace
        trace_path = gen(tmp_path, spec_path)
        cfg = json.loads(cluster_path.read_text())
        cfg["cost.fixed_step_overhead"] = 0.5
        bad = tmp_path / "overhead.json"
        bad.write_text(json.dumps(cfg))
        assert main(["run-sim", "--trace", str(trace_path), "--cluster", str(bad),
                     "--policy", "histopipe_two_tier", "--out", str(tmp_path / "x.json")]) == EXIT_CONFIG
        assert "fixed_step_overhead" in capsys.readouterr().err

    def test_policy_name_config_key_rejected(self, workspace, capsys):
        # The policy is chosen by --policy alone; a config key naming another
        # one must not override it.
        tmp_path, spec_path, cluster_path = workspace
        trace_path = gen(tmp_path, spec_path)
        cfg = json.loads(cluster_path.read_text())
        cfg["policy.name"] = "colocated"
        bad = tmp_path / "policyname.json"
        bad.write_text(json.dumps(cfg))
        out = tmp_path / "x.json"
        assert main(["run-sim", "--trace", str(trace_path), "--cluster", str(bad),
                     "--policy", "streaming", "--out", str(out)]) == EXIT_CONFIG
        assert "policy.name" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key,value", [
        ("spec.gate_table", [8192] * 10), ("policy.plan_precision", 0.05),
        ("cluster.min_wks", 1), ("cluster.max_wks", 4),
    ])
    def test_removed_config_key_exits_two(self, workspace, key, value, capsys):
        # Deleted settings that every run left at their defaults: even the
        # old default is an unknown key now.
        tmp_path, spec_path, cluster_path = workspace
        trace_path = gen(tmp_path, spec_path)
        cfg = {**json.loads(cluster_path.read_text()), key: value}
        bad = tmp_path / "removed.json"
        bad.write_text(json.dumps(cfg))
        out = tmp_path / "x.json"
        assert main(["run-sim", "--trace", str(trace_path), "--cluster", str(bad),
                     "--policy", "histopipe_two_tier", "--out", str(out)]) == EXIT_CONFIG
        assert key.split(".")[1] in capsys.readouterr().err
        assert not out.exists()
        assert not (tmp_path / "x.events.jsonl").exists()

    @pytest.mark.parametrize("command", ["run-sim", "plan-alloc"])
    @pytest.mark.parametrize("key,value", [
        ("spec.window_init", 2), ("spec.window_add", 2), ("spec.window_max", 32),
        ("spec.prefix_init", 7), ("spec.prefix_min", 3),
        ("policy.speculation", True), ("policy.migration", True),
        ("policy.oversample_pct", 0.0),
    ])
    def test_engine_and_policy_key_exits_two(self, workspace, command, key, value, capsys):
        # The HistoSpec settings are constants and the policy comes from
        # run-sim's flags: a run config holds cluster.* and cost.* only, and
        # even a key's old default is unknown.
        tmp_path, spec_path, cluster_path = workspace
        trace_path = gen(tmp_path, spec_path)
        cfg = {**json.loads(cluster_path.read_text()), key: value}
        bad = tmp_path / "removed.json"
        bad.write_text(json.dumps(cfg))
        out = tmp_path / "x.json"
        argv = (["--policy", "histopipe_two_tier"] if command == "run-sim"
                else ["--step", "2"])
        capsys.readouterr()
        assert main([command, "--trace", str(trace_path), "--cluster", str(bad), *argv,
                     "--out", str(out)]) == EXIT_CONFIG
        assert key in capsys.readouterr().err
        assert not out.exists()
        assert not (tmp_path / "x.events.jsonl").exists()

    @pytest.mark.parametrize("percent", ["150", "100", "-1", "nan"])
    def test_oversample_out_of_range_exits_two(self, workspace, percent, capsys):
        tmp_path, spec_path, cluster_path = workspace
        trace_path = gen(tmp_path, spec_path)
        out = tmp_path / "x.json"
        assert main(["run-sim", "--trace", str(trace_path), "--cluster", str(cluster_path),
                     "--policy", "streaming", "--oversample", percent,
                     "--out", str(out)]) == EXIT_CONFIG
        assert "oversample_pct" in capsys.readouterr().err
        assert not out.exists()
        assert not (tmp_path / "x.events.jsonl").exists()


class TestUsage:
    @pytest.mark.parametrize("extra", [["--seed", "1"], ["--replicas", "2"]])
    def test_removed_run_flags_rejected(self, workspace, extra):
        tmp_path, spec_path, cluster_path = workspace
        trace_path = gen(tmp_path, spec_path)
        assert main(["run-sim", "--trace", str(trace_path), "--cluster", str(cluster_path),
                     "--policy", "streaming", "--out", str(tmp_path / "x.json"),
                     *extra]) == EXIT_CONFIG

    def test_unknown_flag_exits_two(self):
        assert main(["gen-trace", "--bogus"]) == EXIT_CONFIG

    def test_unknown_command_exits_two(self):
        assert main(["frobnicate"]) == EXIT_CONFIG

    def test_version_prints_schemas(self, capsys):
        code = main(["--version"])
        assert code == EXIT_OK
        assert "trace" in capsys.readouterr().out
