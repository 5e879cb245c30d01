#!/usr/bin/env python3
"""End-to-end and per-layer benchmark for rhymesim.

    python3 perfbench/run.py --workload spec_hisim --seed 1 --seconds 30 --trace 0

Each workload drives the program the way a user does, in this one process:
the `gen-trace` CLI command makes the workload's trace from `--seed`, then
`run-sim` simulates it under the workload's policy and under the colocated
baseline. Simulations repeat in whole rounds until `--seconds` have passed,
and times are medians over the rounds, so a faster program runs more rounds
rather than a shorter, noisier run. The end-to-end times are scaled by the
run's host speed, measured with a fixed reference loop timed during the
set-up and once per round (see calibrate.py). Every output is checked against the trace
and against properties the method must have (see checks.py).

`--trace 0` prints the end-to-end metrics. `--trace 1` instead alternates
untraced and traced runs of the policy, times the calls into each module
from outside the program (see spans.py), and prints the per-layer metrics.
The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}.
Details of the run go to perfbench/out/. The exit code is 0 when every check
passed, 1 when one failed and 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import resource
import shutil
import statistics
import sys
import traceback
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import checks
from calibrate import REFERENCE_S, reference_loop
from spans import SpanRecorder, write_spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

# gen-trace runs this many times per run; setup_s is their median. The
# reference loop runs before every SETUP_REFERENCE_EVERY-th of them (0, 4, 8).
SETUP_REPS = 9
SETUP_REFERENCE_EVERY = 4
# Every run simulates at least this many rounds, however short --seconds is,
# so medians and the pass-to-pass determinism check always have data.
MIN_ROUNDS = 3

# Simulated costs shared by all workloads: a 4 ms engine-iteration floor plus
# 0.8 ms per in-flight response, so batching and stragglers both matter.
COST = {
    "cost.per_iter_base": 0.004,
    "cost.per_iter_batch": 0.0008,
    "cost.reward_time": 0.002,
    "cost.train_base": 0.3,
    "cost.train_per_sample": 0.003,
}

# ROADMAP.md's "S" workload (tests/test_sim.py longtail_trace with fast_cost:
# 48 prompts x 4 samples, median 150 tokens, on 12 workers and 4 groups) and
# its "M" workload (256 prompts x 8 samples on 64 workers and 8 groups) set
# the group sizes, lengths and clusters. The number of prompts and epochs is
# cut to fit a 30-second run, and the length spread is TraceSpec's default
# 0.8 rather than S's 1.1: the seed-to-seed spread of the total work grows
# with the spread of lengths and shrinks with the number of prompts (see
# README.md, "Workloads"). The trace seed is the benchmark's --seed.
SHAPE = {
    "epochs": 3,
    "len_mu": math.log(150.0),
    "len_sigma": 0.8,
    "rank_noise": 0.9,
    "length_jitter": 0.06,
    "growth_mean": 1.005,
}
S_CLUSTER = {"cluster.rollout_workers": 12, "cluster.reward_workers": 8,
             "cluster.n_groups": 4, **COST}


@dataclass(frozen=True)
class Workload:
    policy: str
    speculation: bool
    trace_spec: dict
    cluster: dict


WORKLOADS = {
    # The paper's regime: high cross-epoch similarity, speculation on, the
    # two-tier planner. Time goes to index builds and hit-heavy lookups.
    "spec_hisim": Workload(
        "histopipe_two_tier", True,
        {"num_prompts": 96, "group_size": 4, "similarity": 0.9, **SHAPE}, S_CLUSTER,
    ),
    # Same shape at low similarity under round-robin streaming: lookups mostly
    # miss, and no ranking groups or migration checks run.
    "spec_lowsim": Workload(
        "streaming", True,
        {"num_prompts": 96, "group_size": 4, "similarity": 0.3, **SHAPE}, S_CLUSTER,
    ),
    # No speculation on M's wide cluster: no history is built; time goes to
    # the event loop, per-completion migration checks and plain replay. The
    # largest trace, so it also stresses io.
    "nospec_wide": Workload(
        "histopipe_two_tier", False,
        {"num_prompts": 128, "group_size": 8, "similarity": 0.9, **SHAPE},
        {"cluster.rollout_workers": 64, "cluster.reward_workers": 8,
         "cluster.n_groups": 8, **COST},
    ),
}

E2E_UNITS = {
    "setup_s": "s",
    "sim_s": "s",
    "baseline_s": "s",
    "peak_rss_mb": "MB",
    "sim_speedup": "x",
    "tokens_per_iter": "tokens/iteration",
}

LAYER_UNITS = {
    "tracegen.generate.s": "s",
    "tracegen.generate.tokens_per_s": "tokens/s",
    "io.read_trace.s": "s",
    "io.read_trace.tokens_per_s": "tokens/s",
    "io.write.s": "s",
    "io.write.bytes": "B",
    "cli.run_sim.s": "s",
    "cli.self_s": "s",
    "history.build.s": "s",
    "history.build.tokens_per_s": "tokens/s",
    "history.index.bytes_per_token": "B/token",
    "history.index.nodes_per_token": "nodes/token",
    "history.draft.calls": "count",
    "history.draft.us_per_call": "us",
    "history.draft.hit_ratio": "ratio",
    "history.draft.tokens_per_call": "tokens/call",
    "spec_engine.replay.calls": "count",
    "spec_engine.replay.self_s": "s",
    "spec_engine.replay.us_per_iter": "us/iter",
    "spec_engine.acceptance_ratio": "ratio",
    "scheduler.migration.calls": "count",
    "scheduler.migration.s": "s",
    "scheduler.migration.migrate_ratio": "ratio",
    "scheduler.plan.calls": "count",
    "scheduler.plan.s": "s",
    "scheduler.groups.s": "s",
    "sim.run.s": "s",
    "sim.loop.self_s": "s",
    "sim.events": "count",
    "sim.loop.us_per_event": "us/event",
    "trace.overhead_s": "s",
}


class BenchError(RuntimeError):
    """The benchmark cannot produce a result."""


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _call_cli(cli, argv: list[str]) -> int:
    # The CLI reports what it wrote on stdout; keep stdout for the result.
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


@dataclass
class SimJob:
    """One `run-sim` command line, run once per round."""

    label: str
    argv: list[str]
    out: Path
    speculation: bool
    times: list[float] = field(default_factory=list)
    traced_times: list[float] = field(default_factory=list)
    events_sha256: str | None = None
    samples_per_second: float = 0.0
    tokens_per_iter: float = 0.0


class Bench:
    def __init__(self, name: str, seed: int, traced: bool, cli):
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.cli = cli
        self.recorder = SpanRecorder() if traced else None
        self.work = OUT / f"work-{name}"
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.setup_times: list[float] = []
        # Reference-loop times taken during the set-up and once per round.
        self.reference_times: dict[str, list[float]] = {"setup": [], "rounds": []}
        self.setup_records = []
        self.sim_records = []
        self.trace: checks.TraceIndex | None = None

    # -- set-up ----------------------------------------------------------------

    def prepare(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        (self.work / "trace_spec.json").write_text(json.dumps(self.workload.trace_spec))
        self.cluster_path = self.work / "cluster.json"
        self.cluster_path.write_text(json.dumps(self.workload.cluster))
        self.trace_path = self.work / "trace.jsonl"

    def setup(self) -> None:
        argv = ["gen-trace", "--spec", str(self.work / "trace_spec.json"),
                "--out", str(self.trace_path), "--seed", str(self.seed)]
        digest = None
        for rep in range(SETUP_REPS):
            if self.recorder is not None:
                self.recorder.install()
                self.recorder.begin_pass()
            elif rep % SETUP_REFERENCE_EVERY == 0:
                self.time_reference("setup")
            start = perf_counter()
            try:
                rc = _call_cli(self.cli, argv)
            finally:
                elapsed = perf_counter() - start
                if self.recorder is not None:
                    self.setup_records.append(self.recorder.end_pass())
                    self.recorder.uninstall()
            if rc != 0:
                raise BenchError(f"gen-trace exited with {rc}")
            self.setup_times.append(elapsed)
            sha = _sha256(self.trace_path)
            if digest is not None and sha != digest:
                self.failures.append("gen-trace wrote different bytes for the same seed")
            digest = sha
        self.trace = checks.load_trace(self.trace_path)

    # -- simulations -------------------------------------------------------------

    def sim_job(self, label: str, policy: str, speculation: bool) -> SimJob:
        out = self.work / f"{label}.json"
        argv = ["run-sim", "--trace", str(self.trace_path), "--cluster", str(self.cluster_path),
                "--policy", policy, "--out", str(out),
                "--speculation" if speculation else "--no-speculation"]
        return SimJob(label, argv, out, speculation)

    def run_sim(self, job: SimJob, traced: bool) -> None:
        self.attempted += 1
        if traced:
            self.recorder.install()
            self.recorder.begin_pass()
        start = perf_counter()
        try:
            if traced:
                with self.recorder.span("cli.run_sim"):
                    rc = _call_cli(self.cli, job.argv)
            else:
                rc = _call_cli(self.cli, job.argv)
        except Exception:
            traceback.print_exc()
            rc = None
        finally:
            elapsed = perf_counter() - start
            if traced:
                record = self.recorder.end_pass()
                self.recorder.uninstall()
        if rc != 0:
            self.failed += 1
            self.failures.append(f"{job.label}: run-sim failed (exit {rc})")
            return
        (job.traced_times if traced else job.times).append(elapsed)
        if traced:
            self.sim_records.append(record)
        self.check_outputs(job)

    def check_outputs(self, job: SimJob) -> None:
        events_path = job.out.with_suffix(".events.jsonl")
        sha = _sha256(events_path)
        if job.events_sha256 is not None:
            if sha != job.events_sha256:
                self.failures.append(f"{job.label}: events log differs between passes")
            return
        job.events_sha256 = sha
        events = checks.load_events(events_path)
        workers = self.workload.cluster["cluster.rollout_workers"]
        for msg in checks.check_events(events, self.trace, workers, job.speculation):
            self.failures.append(f"{job.label}: {msg}")
        payload = json.loads(job.out.read_text())
        for msg in checks.check_run_json(payload, self.trace):
            self.failures.append(f"{job.label}: {msg}")
        job.samples_per_second = payload["metrics"]["samples_per_second"]
        job.tokens_per_iter = checks.tokens_per_iteration(events)

    def measure(self, seconds: float) -> list[SimJob]:
        wl = self.workload
        policy = self.sim_job("policy", wl.policy, wl.speculation)
        jobs = [policy]
        if self.recorder is None:
            jobs.append(self.sim_job("baseline", "colocated", False))
        deadline = perf_counter() + seconds
        rounds = 0
        while rounds < MIN_ROUNDS or perf_counter() < deadline:
            if self.recorder is None:
                self.time_reference("rounds")
            for job in jobs:
                self.run_sim(job, traced=False)
            if self.recorder is not None:
                self.run_sim(policy, traced=True)
            rounds += 1
        return jobs

    # -- results -------------------------------------------------------------

    def time_reference(self, phase: str) -> None:
        start = perf_counter()
        reference_loop()
        self.reference_times[phase].append(perf_counter() - start)

    def host_scale(self, phase: str) -> float:
        """REFERENCE_S over the median reference-loop time of one phase of
        this run: multiplying a median time of that phase by it gives seconds
        at the reference host speed."""
        return REFERENCE_S / statistics.median(self.reference_times[phase])

    def end_to_end(self, policy: SimJob, baseline: SimJob) -> dict[str, float]:
        if not policy.times or not baseline.times:
            raise BenchError("no simulation of the policy or of the baseline succeeded")
        scale = self.host_scale("rounds")
        return {
            "setup_s": statistics.median(self.setup_times) * self.host_scale("setup"),
            "sim_s": statistics.median(policy.times) * scale,
            "baseline_s": statistics.median(baseline.times) * scale,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "sim_speedup": policy.samples_per_second / baseline.samples_per_second,
            "tokens_per_iter": policy.tokens_per_iter,
        }

    def check_spans(self) -> None:
        for record in self.sim_records:
            self.failures += [f"traced draft lookup: {m}"
                              for m in checks.check_drafts(record.draft_samples, self.trace)]
            self.failures += [f"traced replay: {m}"
                              for m in checks.check_replay_history(record.replay_samples,
                                                                   self.trace)]
            for s in record.spans:
                if s.name == "sim.run" and s.self_s < -1e-6:
                    self.failures.append(f"child spans of sim.run sum to "
                                         f"{s.duration - s.self_s:.6f} s, "
                                         f"more than its {s.duration:.6f} s")

    def index_memory(self) -> dict[str, float]:
        """tracemalloc bytes and node counts of one epoch's suffix trees: the
        epoch the last simulated step drafts from."""
        from rhymesim import history

        build_tree = getattr(history, "build_tree", None)
        response = getattr(history, "Response", None)
        epoch = self.workload.trace_spec["epochs"] - 1
        if not self.workload.speculation or build_tree is None or response is None:
            return {"bytes_per_token": 0.0, "nodes_per_token": 0.0, "approx_bytes_per_token": 0.0}
        groups = {pid: [response(pid, e, list(toks), 1.0) for toks in group]
                  for (pid, e), group in sorted(self.trace.tokens.items()) if e == epoch}
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            trees = [build_tree(pid, epoch, group) for pid, group in groups.items()]
            used = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        tokens = sum(t.total_tokens for t in trees)
        nodes = sum(getattr(t, "node_count", 0) for t in trees)
        approx = sum(t.approx_bytes() for t in trees if hasattr(t, "approx_bytes"))
        return {"bytes_per_token": _ratio(used, tokens), "nodes_per_token": _ratio(nodes, tokens),
                "approx_bytes_per_token": _ratio(approx, tokens)}

    def per_layer(self, policy: SimJob, index: dict[str, float]) -> dict[str, float]:
        recs = self.sim_records
        if not recs or not policy.times:
            raise BenchError("no traced and untraced simulation pair succeeded")

        def med(fn) -> float:
            return statistics.median(fn(r) for r in recs)

        gen = self.setup_records
        return {
            "tracegen.generate.s": statistics.median(r.seconds("tracegen.generate") for r in gen),
            "tracegen.generate.tokens_per_s": statistics.median(
                _ratio(r.count("tracegen.generate", "tokens"), r.seconds("tracegen.generate"))
                for r in gen),
            "io.read_trace.s": med(lambda r: r.seconds("io.read_trace")),
            "io.read_trace.tokens_per_s": med(
                lambda r: _ratio(r.count("io.read_trace", "tokens"), r.seconds("io.read_trace"))),
            "io.write.s": med(lambda r: r.seconds("io.write")),
            "io.write.bytes": med(lambda r: r.count("io.write", "bytes")),
            "cli.run_sim.s": med(lambda r: r.seconds("cli.run_sim")),
            "cli.self_s": med(lambda r: r.self_seconds("cli.run_sim")),
            "history.build.s": med(lambda r: r.seconds("history.build")),
            "history.build.tokens_per_s": med(
                lambda r: _ratio(r.count("history.build", "tokens"), r.seconds("history.build"))),
            "history.index.bytes_per_token": index["bytes_per_token"],
            "history.index.nodes_per_token": index["nodes_per_token"],
            "history.draft.calls": med(lambda r: r.calls("history.draft")),
            "history.draft.us_per_call": med(
                lambda r: _ratio(r.seconds("history.draft"), r.calls("history.draft")) * 1e6),
            "history.draft.hit_ratio": med(
                lambda r: _ratio(r.count("history.draft", "hits"), r.calls("history.draft"))),
            "history.draft.tokens_per_call": med(
                lambda r: _ratio(r.count("history.draft", "draft_tokens"),
                                 r.calls("history.draft"))),
            "spec_engine.replay.calls": med(lambda r: r.calls("spec_engine.replay")),
            "spec_engine.replay.self_s": med(lambda r: r.self_seconds("spec_engine.replay")),
            "spec_engine.replay.us_per_iter": med(
                lambda r: _ratio(r.seconds("spec_engine.replay"),
                                 r.count("spec_engine.replay", "iterations")) * 1e6),
            "spec_engine.acceptance_ratio": med(
                lambda r: _ratio(r.count("spec_engine.replay", "accepted"),
                                 r.count("spec_engine.replay", "drafted"))),
            "scheduler.migration.calls": med(lambda r: r.calls("scheduler.migration")),
            "scheduler.migration.s": med(lambda r: r.seconds("scheduler.migration")),
            "scheduler.migration.migrate_ratio": med(
                lambda r: _ratio(r.count("scheduler.migration", "migrates"),
                                 r.calls("scheduler.migration"))),
            "scheduler.plan.calls": med(lambda r: r.calls("scheduler.plan")),
            "scheduler.plan.s": med(lambda r: r.seconds("scheduler.plan")),
            "scheduler.groups.s": med(lambda r: r.seconds("scheduler.groups")),
            "sim.run.s": med(lambda r: r.seconds("sim.run")),
            "sim.loop.self_s": med(lambda r: r.self_seconds("sim.run")),
            "sim.events": med(lambda r: r.count("sim.run", "events")),
            "sim.loop.us_per_event": med(
                lambda r: _ratio(r.self_seconds("sim.run"), r.count("sim.run", "events")) * 1e6),
            "trace.overhead_s": (statistics.median(policy.traced_times)
                                 - statistics.median(policy.times)),
        }


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True, help="trace seed")
    p.add_argument("--seconds", type=float, required=True,
                   help="measure for at least this long (whole rounds)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: traced run printing per-layer metrics")
    return p.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "rhymesim" / "cli.py").is_file():
        print(f"error: no rhymesim sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from rhymesim import cli

    bench = Bench(args.workload, args.seed, bool(args.trace), cli)
    OUT.mkdir(parents=True, exist_ok=True)
    bench.prepare()
    try:
        bench.setup()
        jobs = bench.measure(args.seconds)
        details = {"events_sha256": {j.label: j.events_sha256 for j in jobs},
                   "times": {j.label: j.times for j in jobs},
                   "setup_times": bench.setup_times,
                   "reference_times": bench.reference_times}
        if args.trace:
            bench.check_spans()
            index = bench.index_memory()
            metrics = bench.per_layer(jobs[0], index)
            units = LAYER_UNITS
            details.update(traced_times=jobs[0].traced_times, index=index,
                           absent=bench.recorder.absent)
            write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.csv",
                        [("setup", bench.setup_records[-1]), ("sim", bench.sim_records[-1])])
        else:
            metrics = bench.end_to_end(*jobs)
            units = E2E_UNITS
            details["host_scale"] = {p: bench.host_scale(p) for p in bench.reference_times}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    correct = not bench.failures
    result = {
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }
    details.update(workload=args.workload, seed=args.seed, trace=args.trace,
                   failures=bench.failures, result=result)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(details, indent=1, sort_keys=True) + "\n")
    for msg in bench.failures[:20]:
        print(f"check failed: {msg}", file=sys.stderr)
    if len(bench.failures) > 20:
        print(f"... and {len(bench.failures) - 20} more failed checks", file=sys.stderr)
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
