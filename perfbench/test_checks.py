"""Each output check passes on a real run and fires on a corrupted one.

    PYTHONPATH=src python -m pytest -q perfbench/test_checks.py
"""

from __future__ import annotations

import copy
import json
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
from spans import Span, SpanRecorder, derive_self_times  # noqa: E402

from rhymesim import io as rio  # noqa: E402
from rhymesim.sim import ClusterSpec, CostConfig, Policy, run  # noqa: E402
from rhymesim.tracegen import Trace, TraceSpec, generate  # noqa: E402

WORKERS = 6


@pytest.fixture(scope="module")
def simulated(tmp_path_factory):
    spec = TraceSpec(num_prompts=12, epochs=3, group_size=2, len_mu=math.log(40),
                     len_sigma=0.7, similarity=0.9, seed=4)
    path = tmp_path_factory.mktemp("trace") / "trace.jsonl"
    rio.write_trace(path, generate(spec))
    trace = checks.load_trace(path)
    cost = CostConfig(per_iter_base=0.004, per_iter_batch=0.0008, reward_time=0.002,
                      train_base=0.3, train_per_sample=0.003)
    result = run(Trace(rio.read_trace(path)),
                 ClusterSpec(rollout_workers=WORKERS, reward_workers=4, n_groups=3),
                 Policy("histopipe_two_tier", speculation=True), cost)
    events = [json.loads(line) for line in result.events_jsonl().splitlines()]
    return trace, events


def _finish_indexes(events):
    return [i for i, ev in enumerate(events) if ev["kind"] == "rollout_finish"]


def test_clean_run_passes(simulated):
    trace, events = simulated
    assert checks.check_events(events, trace, WORKERS, speculation=True) == []
    assert 1.0 <= checks.tokens_per_iteration(events)


def test_dropped_sample_fires(simulated):
    trace, events = simulated
    bad = copy.deepcopy(events)
    del bad[_finish_indexes(bad)[3]]
    failures = checks.check_events(bad, trace, WORKERS, speculation=True)
    assert any("never finished" in f for f in failures)


def test_duplicated_sample_fires(simulated):
    trace, events = simulated
    bad = copy.deepcopy(events)
    i = _finish_indexes(bad)[5]
    bad.insert(i + 1, copy.deepcopy(bad[i]))
    failures = checks.check_events(bad, trace, WORKERS, speculation=True)
    assert any("more than one rollout_finish" in f for f in failures)


def test_wrong_weight_version_fires(simulated):
    trace, events = simulated
    bad = copy.deepcopy(events)
    bad[_finish_indexes(bad)[-1]]["weight_version"] += 1
    failures = checks.check_events(bad, trace, WORKERS, speculation=True)
    assert any("weight_version" in f for f in failures)


def test_iterations_must_equal_tokens_without_speculation(simulated):
    trace, events = simulated
    failures = checks.check_events(events, trace, WORKERS, speculation=False)
    assert any("without speculation" in f for f in failures)


def test_reward_before_finish_fires(simulated):
    trace, events = simulated
    bad = copy.deepcopy(events)
    finish = bad[_finish_indexes(bad)[0]]
    reward = next(ev for ev in bad
                  if ev["kind"] == "reward_done" and ev["sample"] == finish["sample"])
    reward["time"] = finish["time"] - 1.0
    failures = checks.check_events(bad, trace, WORKERS, speculation=True)
    assert any("precedes" in f for f in failures)


def test_over_budget_allocation_fires(simulated):
    trace, events = simulated
    bad = copy.deepcopy(events)
    step = next(ev for ev in bad if ev["kind"] == "step_boundary" and ev["allocation"])
    step["allocation"]["per_group_workers"][0] += WORKERS
    failures = checks.check_events(bad, trace, WORKERS, speculation=True)
    assert any("exceeds" in f for f in failures)


def test_draft_check_uses_the_drafting_epoch(simulated):
    trace, _ = simulated
    (prompt, epoch), responses = next(iter(sorted(trace.tokens.items())))
    resp = responses[0]
    good = (prompt, epoch, resp[:3], resp[3:6])
    assert checks.check_drafts([good], trace) == []
    bad = (prompt, epoch, resp[:3], [t + 1 for t in resp[3:6]])
    assert checks.check_drafts([bad], trace) != []


def test_recorder_reports_absent_names_and_restores(monkeypatch):
    import rhymesim.sim as sim

    original = sim.replay_response
    monkeypatch.delattr(sim, "migration_decision")
    recorder = SpanRecorder()
    recorder.install()
    try:
        assert sim.replay_response is not original
        assert "rhymesim.sim.migration_decision" in recorder.absent
    finally:
        recorder.uninstall()
    assert sim.replay_response is original


def test_self_time_is_duration_minus_children():
    parent = Span(0, -1, "sim.run", 0.0, 1.0)
    kids = [Span(1, 0, "spec_engine.replay", 0.1, 0.4), Span(2, 0, "scheduler.plan", 0.5, 0.6)]
    grandchild = Span(3, 1, "history.draft", 0.2, 0.3)
    derive_self_times([parent, *kids, grandchild])
    assert parent.self_s == pytest.approx(0.6)
    assert kids[0].self_s == pytest.approx(0.2)
    assert grandchild.self_s == pytest.approx(0.1)


def test_failed_simulation_makes_the_run_incorrect(tmp_path):
    import run as bench_run
    from rhymesim import cli

    bench = bench_run.Bench("spec_hisim", 1, False, cli)
    job = bench_run.SimJob("policy", ["run-sim", "--trace", str(tmp_path / "missing.jsonl"),
                                      "--out", str(tmp_path / "out.json")],
                           tmp_path / "out.json", True)
    bench.run_sim(job, traced=False)
    assert (bench.attempted, bench.failed) == (1, 1)
    assert any("run-sim failed" in f for f in bench.failures)
