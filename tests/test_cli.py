from __future__ import annotations

import json
import math

import pytest

from rhymesim import io as rio
from rhymesim.cli import EXIT_CONFIG, EXIT_INFEASIBLE, EXIT_IO, EXIT_OK, load_run_config, main
from rhymesim.scheduler import AnalyticCostModel, plan_allocation
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
        "spec.window_init": 2, "policy.speculation": True,
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

    @pytest.mark.parametrize("edit", [{"tokens": []}, {"reward": math.nan}])
    def test_similarity_rejects_bad_previous_response(self, workspace, edit, capsys):
        tmp_path, spec_path, _ = workspace
        responses = rio.read_trace(gen(tmp_path, spec_path))
        first = responses[0]
        assert first.epoch == 1
        for key, value in edit.items():
            setattr(first, key, value)
        bad = tmp_path / "bad.jsonl"
        rio.write_trace(bad, responses)
        assert main(["analyze", "similarity", "--trace", str(bad),
                     "--epochs", "1,2"]) == EXIT_CONFIG
        assert "error:" in capsys.readouterr().err

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


class TestPlanAlloc:
    def test_matches_library_plan(self, tmp_path, capsys):
        out = tmp_path / "plan.json"
        code = main(["plan-alloc", "--lens", "8,16,32,64", "--wks", "10",
                     "--analytic", "0.01,0.002,0.0,16", "--max-wks", "6",
                     "--precision", "0.01", "--out", str(out)])
        assert code == EXIT_OK
        payload = rio.read_json(out)
        model = AnalyticCostModel(per_iter_base=0.01, per_iter_batch=0.002,
                                  fixed=0.0, batch_size=16)
        lens = [8, 16, 32, 64]
        plan = plan_allocation(4, 10, 0.0, lambda g, k: model.tau(lens[g], k), 1, 6, 0.01)
        assert payload["per_group_workers"] == plan.per_group_workers
        assert payload["d"] == pytest.approx(plan.gradient_d)
        assert payload["feasible"] is True

    # The exact plan JSON of one analytic and one profiled instance, pinned so
    # that a change moving the CLI and the library together still shows.
    PINNED_ANALYTIC = ('{\n  "d": 0.6133333333333333,\n  "feasible": true,\n'
                       '  "per_group_workers": [\n    6,\n    1,\n    1,\n    2\n  ],\n'
                       '  "schema": 1,\n  "t0": 0.128\n}\n')
    PINNED_PROFILE = ('{\n  "d": 2.2287326388888893,\n  "feasible": true,\n'
                      '  "per_group_workers": [\n    2,\n    2,\n    3,\n    3\n  ],\n'
                      '  "schema": 1,\n  "t0": 5.0\n}\n')

    def test_analytic_plan_json_pinned(self, tmp_path):
        out = tmp_path / "plan.json"
        assert main(["plan-alloc", "--lens", "8,16,32,64", "--wks", "10",
                     "--analytic", "0.01,0.002,0.0,16", "--max-wks", "6",
                     "--precision", "0.01", "--out", str(out)]) == EXIT_OK
        assert out.read_text() == self.PINNED_ANALYTIC

    def test_profile_plan_json_pinned(self, tmp_path):
        profile = tmp_path / "profile.csv"
        profile.write_text("len,dp,seconds\n100,1,10.0\n100,2,6.0\n100,4,4.0\n"
                           "200,1,20.0\n200,2,12.0\n200,4,7.0\n"
                           "400,1,40.0\n400,2,22.0\n400,4,13.0\n")
        out = tmp_path / "plan.json"
        assert main(["plan-alloc", "--lens", "100,150,300,400", "--wks", "10",
                     "--profile", str(profile), "--t-train", "5",
                     "--accepted-per-pass", "0.5", "--precision", "0.01",
                     "--out", str(out)]) == EXIT_OK
        assert out.read_text() == self.PINNED_PROFILE

    def test_infeasible_exit_code(self, tmp_path):
        code = main(["plan-alloc", "--lens", "8,16,32,64", "--wks", "3",
                     "--analytic", "1.0,1.0,0.0,64", "--max-wks", "1",
                     "--out", str(tmp_path / "p.json")])
        assert code == EXIT_INFEASIBLE

    @pytest.mark.parametrize("precision", ["0", "-1", "nan"])
    def test_non_positive_precision_exits_two(self, tmp_path, precision, time_limit, capsys):
        assert main(["plan-alloc", "--lens", "100,200,400,800", "--wks", "16",
                     "--precision", precision, "--out", str(tmp_path / "p.json")]) == EXIT_CONFIG
        assert "precision" in capsys.readouterr().err

    def test_precision_below_float_resolution_ends(self, tmp_path, time_limit):
        assert main(["plan-alloc", "--lens", "100,200,400,800", "--wks", "16",
                     "--precision", "1e-300", "--out", str(tmp_path / "p.json")]) == EXIT_OK

    @pytest.mark.parametrize("flags", [["--max-wks", "0"], ["--min-wks", "0"],
                                       ["--min-wks", "3", "--max-wks", "2"]])
    def test_bad_worker_bounds_exit_two(self, tmp_path, flags):
        assert main(["plan-alloc", "--lens", "8,16,32,64", "--wks", "10", *flags,
                     "--out", str(tmp_path / "p.json")]) == EXIT_CONFIG

    # Numbers no plan can be made from exit 2 and name their flag; none of
    # them may reach the planner (a ZeroDivisionError, an "infeasible" exit
    # 3 with NaN in the plan, or a silently ignored NaN).
    @pytest.mark.parametrize("flags", [
        ["--accepted-per-pass", "-1"],
        ["--accepted-per-pass", "nan"],
        ["--lens", "10,nan"],
        ["--lens", "nan,10"],
        ["--lens", "10,inf"],
        ["--lens", "-1,10"],
        ["--lens", "10"],
        ["--lens", "10,x"],
        ["--lens", "20,10"],
        ["--t-train", "nan"],
        ["--t-train", "inf"],
        ["--t-train", "-1"],
        ["--analytic", "0.01,-0.002,0.0,16"],
        ["--analytic", "0.01,0.002,nan,16"],
        ["--analytic", "0.01,0.002,0.0"],
        ["--wks", "0"],
        ["--wks", "-3"],
        ["--precision", "inf"],
    ], ids="=".join)
    def test_unplannable_number_exits_two(self, tmp_path, flags, capsys):
        argv = ["plan-alloc", "--lens", "8,16,32,64", "--wks", "10", *flags]
        out = tmp_path / "p.json"
        assert main([*argv, "--out", str(out)]) == EXIT_CONFIG
        assert f"argument {flags[0]}:" in capsys.readouterr().err
        assert not out.exists()

    # A profile cell no plan can be made from exits 2 and names its line.
    @pytest.mark.parametrize("cell", ["100,1,nan", "100,1,inf", "100,1,-12.0", "nan,1,10.0",
                                      "inf,1,10.0"])
    def test_bad_profile_cell_exits_two(self, tmp_path, cell, capsys):
        profile = tmp_path / "profile.csv"
        profile.write_text(f"len,dp,seconds\n100,2,6.0\n{cell}\n200,1,20.0\n200,2,12.0\n")
        out = tmp_path / "p.json"
        assert main(["plan-alloc", "--lens", "100,200", "--wks", "4", "--profile", str(profile),
                     "--out", str(out)]) == EXIT_CONFIG
        assert "profile CSV line 3:" in capsys.readouterr().err
        assert not out.exists()


class TestRunSim:
    def test_run_and_report_round_trip(self, workspace):
        tmp_path, spec_path, cluster_path = workspace
        trace_path = gen(tmp_path, spec_path)
        run_a = tmp_path / "a.json"
        run_b = tmp_path / "b.json"
        assert main(["run-sim", "--trace", str(trace_path), "--cluster", str(cluster_path),
                     "--policy", "colocated", "--out", str(run_a)]) == EXIT_OK
        assert main(["run-sim", "--trace", str(trace_path), "--cluster", str(cluster_path),
                     "--policy", "histopipe_two_tier", "--out", str(run_b)]) == EXIT_OK
        csv_out = tmp_path / "cmp.csv"
        assert main(["report", "--runs", str(run_a), str(run_b),
                     "--csv", str(csv_out)]) == EXIT_OK
        lines = csv_out.read_text().splitlines()
        assert len(lines) == 3
        base_row = lines[1].split(",")
        assert float(base_row[3]) == 1.0  # first run normalizes to itself
        payload = rio.read_json(run_b)
        assert payload["schema"] == 3 and "seed" not in payload and "timeline" not in payload

    def test_report_timeline_reads_events_log_beside_run(self, workspace, monkeypatch, capsys):
        # run-sim records events_path relative to the directory it ran in;
        # report finds the log beside the run JSON from any directory.
        tmp_path, spec_path, cluster_path = workspace
        trace_path = gen(tmp_path, spec_path)
        runs = tmp_path / "runs"
        runs.mkdir()
        monkeypatch.chdir(tmp_path)
        assert main(["run-sim", "--trace", str(trace_path), "--cluster", str(cluster_path),
                     "--policy", "colocated", "--out", "runs/a.json"]) == EXIT_OK
        cluster, cost, spec, policy_kwargs = load_run_config(str(cluster_path))
        result = run(Trace(rio.read_trace(trace_path)), cluster,
                     Policy("colocated", **policy_kwargs), cost, spec)
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
        assert main(["report", "--runs", str(runs / "a.json"),
                     "--timeline", str(tmp_path / "tl2.csv")]) == EXIT_IO
        assert "a.events.jsonl" in capsys.readouterr().err
        assert not (tmp_path / "tl2.csv").exists()

    @pytest.mark.parametrize("bad_line", [
        "{not json", '{"seq": 1}',
        # The envelope of an event, without the fields its kind carries.
        '{"time": 99.0, "seq": 999999, "kind": "rollout_finish"}',
        '{"time": 99.0, "seq": 999999, "kind": "no_such_kind"}',
    ])
    def test_report_timeline_bad_events_line_is_io_error(self, workspace, capsys, bad_line):
        tmp_path, spec_path, cluster_path = workspace
        trace_path = gen(tmp_path, spec_path)
        run_path = tmp_path / "r.json"
        assert main(["run-sim", "--trace", str(trace_path), "--cluster", str(cluster_path),
                     "--policy", "streaming", "--out", str(run_path)]) == EXIT_OK
        events_path = tmp_path / "r.events.jsonl"
        lines = events_path.read_text().count("\n")
        with open(events_path, "a", encoding="utf-8") as fh:
            fh.write(bad_line + "\n")
        capsys.readouterr()
        assert main(["report", "--runs", str(run_path),
                     "--timeline", str(tmp_path / "tl.csv")]) == EXIT_IO
        assert f"r.events.jsonl line {lines + 1} " in capsys.readouterr().err
        assert not (tmp_path / "tl.csv").exists()

    def test_report_timeline_log_cut_before_run_end_is_io_error(self, workspace, capsys):
        tmp_path, spec_path, cluster_path = workspace
        trace_path = gen(tmp_path, spec_path)
        run_path = tmp_path / "r.json"
        assert main(["run-sim", "--trace", str(trace_path), "--cluster", str(cluster_path),
                     "--policy", "colocated", "--out", str(run_path)]) == EXIT_OK
        events_path = tmp_path / "r.events.jsonl"
        lines = events_path.read_text().splitlines(keepends=True)
        assert '"run_end"' in lines[-1]
        events_path.write_text("".join(lines[:-1]))
        capsys.readouterr()
        assert main(["report", "--runs", str(run_path),
                     "--timeline", str(tmp_path / "tl.csv")]) == EXIT_IO
        assert "r.events.jsonl is not the events log of one run" in capsys.readouterr().err
        assert not (tmp_path / "tl.csv").exists()

    def test_identical_runs_identical_reports(self, workspace):
        tmp_path, spec_path, cluster_path = workspace
        trace_path = gen(tmp_path, spec_path)
        outs = []
        for name in ("r1.json", "r2.json"):
            out = tmp_path / name
            assert main(["run-sim", "--trace", str(trace_path), "--cluster", str(cluster_path),
                         "--policy", "streaming", "--out", str(out)]) == EXIT_OK
            outs.append(out)
        a = json.loads(outs[0].read_text())
        b = json.loads(outs[1].read_text())
        assert a["metrics"] == b["metrics"]
        assert (tmp_path / "r1.events.jsonl").read_bytes() == (tmp_path / "r2.events.jsonl").read_bytes()

    @pytest.mark.parametrize("speculation", ["--speculation", "--no-speculation"])
    @pytest.mark.parametrize("edit", ["empty tokens", "nan reward", "token 2**31",
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
        if edit == "empty tokens":
            bad["tokens"] = []
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

    @pytest.mark.parametrize("key,value", [("spec.window_init", 64), ("spec.prefix_min", 9),
                                           ("spec.enabled", False)])
    def test_bad_spec_key_rejected(self, workspace, key, value):
        tmp_path, spec_path, cluster_path = workspace
        trace_path = gen(tmp_path, spec_path)
        cfg = json.loads(cluster_path.read_text())
        cfg[key] = value
        bad = tmp_path / "badspec.json"
        bad.write_text(json.dumps(cfg))
        assert main(["run-sim", "--trace", str(trace_path), "--cluster", str(bad),
                     "--policy", "streaming", "--out", str(tmp_path / "x.json")]) == EXIT_CONFIG

    @pytest.mark.parametrize("values", [
        {"cost.per_iter_base": 0, "cost.per_iter_batch": 0},
        {"cost.per_iter_batch": -0.0008},
        {"cost.reward_time": -0.01},
        {"cost.context_switch_frac": math.inf},
        {"cluster.weight_propagation_delay": -0.1},
        {"spec.window_add": -5},
    ])
    def test_bad_value_exits_two_naming_the_key(self, workspace, values, time_limit, capsys):
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

    def test_zero_max_wks_config_rejected(self, workspace):
        tmp_path, spec_path, cluster_path = workspace
        trace_path = gen(tmp_path, spec_path)
        cfg = json.loads(cluster_path.read_text())
        cfg["cluster.max_wks"] = 0
        bad = tmp_path / "maxwks.json"
        bad.write_text(json.dumps(cfg))
        assert main(["run-sim", "--trace", str(trace_path), "--cluster", str(bad),
                     "--policy", "histopipe_two_tier", "--out", str(tmp_path / "x.json")]) == EXIT_CONFIG


    @pytest.mark.parametrize("value", [0.0, -1.0])
    def test_non_positive_plan_precision_config_rejected(self, workspace, value, time_limit):
        tmp_path, spec_path, cluster_path = workspace
        trace_path = gen(tmp_path, spec_path)
        cfg = json.loads(cluster_path.read_text())
        cfg["policy.plan_precision"] = value
        bad = tmp_path / "precision.json"
        bad.write_text(json.dumps(cfg))
        assert main(["run-sim", "--trace", str(trace_path), "--cluster", str(bad),
                     "--policy", "histopipe_two_tier", "--out", str(tmp_path / "x.json")]) == EXIT_CONFIG

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

    def test_zero_gate_table_turns_speculation_off(self, workspace):
        # A gate table of zeros allows no batch to speculate, so every
        # rollout takes one engine iteration per token; with the default
        # table the same run speculates.
        tmp_path, spec_path, cluster_path = workspace
        trace_path = gen(tmp_path, spec_path)
        cfg = json.loads(cluster_path.read_text())
        iters_below_tokens = {}
        for label, table in (("default", None), ("zero", [0] * 10)):
            if table is not None:
                cfg["spec.gate_table"] = table
            path = tmp_path / f"gate-{label}.json"
            path.write_text(json.dumps(cfg))
            out = tmp_path / f"run-{label}.json"
            assert main(["run-sim", "--trace", str(trace_path), "--cluster", str(path),
                         "--policy", "histopipe_two_tier", "--speculation",
                         "--out", str(out)]) == EXIT_OK
            finishes = [json.loads(line) for line in
                        (tmp_path / f"run-{label}.events.jsonl").read_text().splitlines()]
            finishes = [e for e in finishes if e["kind"] == "rollout_finish"]
            assert finishes
            iters_below_tokens[label] = sum(e["iterations"] < e["tokens"] for e in finishes)
            if label == "zero":
                assert all(e["iterations"] == e["tokens"] for e in finishes)
        assert iters_below_tokens["default"] > 0

    @pytest.mark.parametrize("table", [[100] * 9, [100] * 5 + [50] * 5])
    def test_bad_gate_table_exits_two(self, workspace, table, capsys):
        tmp_path, spec_path, cluster_path = workspace
        trace_path = gen(tmp_path, spec_path)
        cfg = json.loads(cluster_path.read_text())
        cfg["spec.gate_table"] = table
        bad = tmp_path / "gate.json"
        bad.write_text(json.dumps(cfg))
        assert main(["run-sim", "--trace", str(trace_path), "--cluster", str(bad),
                     "--policy", "streaming", "--out", str(tmp_path / "x.json")]) == EXIT_CONFIG
        assert "gate table" in capsys.readouterr().err


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
