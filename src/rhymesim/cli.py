"""Single entry point tying generation, analysis, planning, and simulation.

Config files are flat JSON key-value maps with dotted keys (for example
"cluster.rollout_workers" or "spec.window_init"); unknown keys are rejected
so typos fail loudly. Outputs are machine-readable by default and written
atomically; `--pretty` switches the analysis commands to human tables.

Exit codes: 0 success, 2 bad usage, config or trace record, 3 infeasible
allocation plan, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import csv
import io as stringio
import json
import math
import os
import sys
from dataclasses import fields

from . import io as rio
from .history import build_tree
from .scheduler import AnalyticCostModel, ProfileCostModel, plan_allocation
from .sim import (
    EVENTS_SCHEMA_VERSION,
    POLICIES,
    RUN_SCHEMA_VERSION,
    SPEC_STATS_HEADER,
    ClusterSpec,
    CostConfig,
    InfeasiblePlanError,
    Policy,
    SimEvent,
    derive,
    run,
)
from .spec_engine import SpecConfig
from .tracegen import Trace, TraceSpec, generate, rank_metrics, token_similarity_replay

SCHEMA_VERSIONS = {
    "trace": rio.TRACE_SCHEMA_VERSION,
    "run": RUN_SCHEMA_VERSION,
    "events": EVENTS_SCHEMA_VERSION,
    "plan": 1,
    "report": 1,
}

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_IO = 4


class ConfigError(ValueError):
    pass


def _load_flat_config(path: str) -> dict:
    try:
        obj = rio.read_json(path)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(obj, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    return obj


def _pop_section(cfg: dict, prefix: str) -> dict:
    section = {}
    for key in list(cfg):
        if key.startswith(prefix + "."):
            section[key[len(prefix) + 1 :]] = cfg.pop(key)
    return section


def _build_dataclass(cls, values: dict, where: str):
    known = {f.name for f in fields(cls)}
    unknown = set(values) - known
    if unknown:
        raise ConfigError(f"unknown {where} keys: {sorted(unknown)}")
    try:
        return cls(**values)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {where} config: {exc}") from exc


def load_run_config(path: str) -> tuple[ClusterSpec, CostConfig, SpecConfig, dict]:
    cfg = _load_flat_config(path)
    cluster = _build_dataclass(ClusterSpec, _pop_section(cfg, "cluster"), "cluster")
    cost = _build_dataclass(CostConfig, _pop_section(cfg, "cost"), "cost")
    spec = _build_dataclass(SpecConfig, _pop_section(cfg, "spec"), "spec")
    policy_defaults = _pop_section(cfg, "policy")
    if "name" in policy_defaults:
        raise ConfigError("policy.name is not a config key: --policy chooses the policy")
    if cfg:
        raise ConfigError(f"unknown config keys: {sorted(cfg)}")
    return cluster, cost, spec, policy_defaults


def load_trace_spec(path: str) -> TraceSpec:
    cfg = _load_flat_config(path)
    return _build_dataclass(TraceSpec, cfg, "trace spec")


def _parse_epoch_pair(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ConfigError(f"expected EPOCH,EPOCH but got {text!r}")
    return int(parts[0]), int(parts[1])


def cmd_gen_trace(args) -> int:
    spec = load_trace_spec(args.spec)
    if args.seed is not None:
        spec.seed = args.seed
    responses = generate(spec)
    rio.write_trace(args.out, responses)
    print(f"wrote {len(responses)} responses to {args.out}")
    return EXIT_OK


def _require_epochs(trace: Trace, *epochs: int) -> None:
    missing = sorted(set(epochs) - set(trace.epochs))
    if missing:
        raise ConfigError(f"trace has no epoch {', '.join(map(str, missing))} "
                          f"(it has {', '.join(map(str, trace.epochs))})")


def _epoch_pairs(trace: Trace, text: str | None) -> list[tuple[int, int]]:
    """The pair named by --epochs, which must be in the trace, or every
    adjacent pair of the trace's epochs."""
    if text:
        pair = _parse_epoch_pair(text)
        _require_epochs(trace, *pair)
        return [pair]
    epochs = trace.epochs
    return list(zip(epochs, epochs[1:]))


def cmd_analyze_rank(args) -> int:
    trace = Trace(rio.read_trace(args.trace))
    pairs = _epoch_pairs(trace, args.epochs)
    rows = []
    for pair in pairs:
        m = rank_metrics(trace, pair, args.groups)
        rows.append([pair[0], pair[1], f"{m.accurate_pct:.3f}", f"{m.not_last_10_pct:.3f}",
                     f"{m.within_1p1x_pct:.3f}", f"{m.migrated_pct:.3f}"])
    header = ["epoch_prev", "epoch_cur", "accurate_pct", "not_last_10_pct",
              "within_1p1x_pct", "migrated_pct"]
    if len(rows) > 1:
        mean = ["mean", "", *(f"{sum(float(r[i]) for r in rows) / len(rows):.3f}" for i in range(2, 6))]
        rows.append(mean)
    _emit_table(args, header, rows)
    return EXIT_OK


def cmd_analyze_similarity(args) -> int:
    trace = Trace(rio.read_trace(args.trace))
    pairs = _epoch_pairs(trace, args.epochs)
    header = ["epoch_prev", "epoch_cur", "acceptance", "acceptance_after_warmup",
              "accepted", "total"]
    rows = []
    for pair in pairs:
        r = token_similarity_replay(trace, pair, args.prefix)
        rows.append([pair[0], pair[1], f"{r.acceptance:.6f}",
                     f"{r.acceptance_after_warmup:.6f}", r.accepted, r.total])
    _emit_table(args, header, rows)
    return EXIT_OK


def cmd_analyze_tree_stats(args) -> int:
    trace = Trace(rio.read_trace(args.trace))
    epoch = args.epoch if args.epoch is not None else trace.epochs[-1]
    _require_epochs(trace, epoch)
    groups = trace.epoch_responses(epoch)
    payload = {"epoch": epoch, "prompt_count": len(groups), "total_nodes": 0,
               "total_tokens": 0, "index_bytes": 0}
    # One index is alive at a time: each is counted and dropped.
    for pid, group in sorted(groups.items()):
        tree = build_tree(pid, epoch, group)
        payload["total_nodes"] += tree.node_count
        payload["total_tokens"] += tree.total_tokens
        payload["index_bytes"] += tree.index_bytes
        del tree
    if args.out:
        rio.write_json(args.out, payload)
    else:
        print(json.dumps(payload, indent=2, sort_keys=True))
    return EXIT_OK


def _nonnegative(text: str) -> float:
    """A finite number >= 0: the only kind a plan can be made from."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(f"expected a finite number >= 0, got {text!r}")
    return value


def _positive(text: str) -> float:
    """A finite number > 0."""
    try:
        value = _nonnegative(text)
    except argparse.ArgumentTypeError:
        value = 0.0
    if value == 0:
        raise argparse.ArgumentTypeError(f"expected a finite number > 0, got {text!r}")
    return value


def _positive_int(text: str) -> int:
    """An integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return value


def _group_lens(text: str) -> list[float]:
    """At least 2 ascending group lengths, shortest group first."""
    lens = [_nonnegative(x) for x in text.split(",")]
    if len(lens) < 2:
        raise argparse.ArgumentTypeError(f"expected at least 2 group lengths, got {text!r}")
    if any(a > b for a, b in zip(lens, lens[1:])):
        raise argparse.ArgumentTypeError(f"group lengths must be ascending, got {text!r}")
    return lens


def _analytic_terms(text: str) -> list[float]:
    terms = [_nonnegative(x) for x in text.split(",")]
    if len(terms) != 4:
        raise argparse.ArgumentTypeError(f"expected 4 terms a,b,c,batch, got {text!r}")
    return terms


def cmd_plan_alloc(args) -> int:
    if args.profile:
        model = ProfileCostModel.from_csv(args.profile)
        model.accepted_per_pass = args.accepted_per_pass
    else:
        a, b, c, batch = args.analytic
        model = AnalyticCostModel(per_iter_base=a, per_iter_batch=b, fixed=c,
                                  batch_size=int(batch),
                                  accepted_per_pass=args.accepted_per_pass)
    plan = plan_allocation(len(args.lens), args.wks, args.t_train,
                           lambda g, k: model.tau(args.lens[g], k),
                           min_wks=args.min_wks, max_wks=args.max_wks,
                           precision=args.precision)
    payload = {"schema": SCHEMA_VERSIONS["plan"], **plan.as_dict()}
    if args.out:
        rio.write_json(args.out, payload)
    else:
        print(json.dumps(payload, indent=2, sort_keys=True))
    return EXIT_OK if plan.feasible else EXIT_INFEASIBLE


def _events_path(run_path: str) -> str:
    """Where run-sim writes the event log of the run JSON at `run_path`."""
    return os.path.splitext(run_path)[0] + ".events.jsonl"


def _read_events(events_path: str) -> list[SimEvent]:
    """A run's events log, one `SimEvent` per line. A line that is not JSON
    or not an event record is an I/O error naming the log and the line."""
    events = []
    with open(events_path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            try:
                events.append(SimEvent.from_dict(json.loads(line)))
            except (ValueError, KeyError, TypeError) as exc:
                raise OSError(f"{events_path} line {lineno} is not an event record: "
                              f"{type(exc).__name__}: {exc}") from exc
    return events


def cmd_run_sim(args) -> int:
    trace = Trace(rio.read_trace(args.trace))
    cluster, cost, spec, policy_kwargs = load_run_config(args.cluster)
    if args.speculation is not None:
        policy_kwargs["speculation"] = args.speculation
    if args.no_migration:
        policy_kwargs["migration"] = False
    if args.oversample is not None:
        policy_kwargs["oversample_pct"] = args.oversample
    policy = _build_dataclass(Policy, {"name": args.policy, **policy_kwargs}, "policy")
    result = run(trace, cluster, policy, cost, spec)
    events_path = _events_path(args.out)
    rio.atomic_write_text(events_path, result.events_jsonl())
    payload = {
        "schema": RUN_SCHEMA_VERSION,
        "policy": policy.name,
        "policy_config": {
            "speculation": policy.speculation,
            "migration": policy.migration,
            "oversample_pct": policy.oversample_pct,
            "plan_precision": policy.plan_precision,
        },
        "trace": args.trace,
        "cluster_config": args.cluster,
        "metrics": result.metrics.as_dict(),
        "events_path": events_path,
        "spec_stats": {
            "header": SPEC_STATS_HEADER,
            "rows": [[step, f"{spec_rate:.6f}", f"{acc_rate:.6f}", verify, decode]
                     for step, spec_rate, acc_rate, verify, decode in result.spec_stats],
        },
        "accounting": {
            "migrations": result.accounting["migrations"],
            "inter_migrations": result.accounting["inter_migrations"],
            "samples": result.metrics.samples,
        },
    }
    rio.write_json(args.out, payload)
    print(f"wrote {args.out} ({result.metrics.samples_per_second:.4f} samples/s)")
    return EXIT_OK


def cmd_report(args) -> int:
    runs = []
    for path in args.runs:
        payload = rio.read_json(path)
        if payload.get("schema") != RUN_SCHEMA_VERSION:
            raise ConfigError(f"{path}: unsupported run schema {payload.get('schema')}")
        runs.append((path, payload))
    base_sps = runs[0][1]["metrics"]["samples_per_second"]
    header = ["run", "policy", "samples_per_second", "normalized_throughput",
              "bubble_fraction", "rollout_share", "train_share", "idle_share",
              "migration_pct", "speculation_rate", "acceptance_rate"]
    rows = []
    for path, payload in runs:
        m = payload["metrics"]
        shares = m["stage_shares"]
        normalized = f"{m['samples_per_second'] / base_sps:.6f}" if base_sps else "0"
        figures = (m["bubble_fraction"], shares.get("rollout", 0.0), shares.get("train", 0.0),
                   shares.get("idle", 0.0), m["migration_pct"], m["speculation_rate"],
                   m["acceptance_rate"])
        rows.append([os.path.basename(path), payload["policy"], f"{m['samples_per_second']:.6f}",
                     normalized, *(f"{x:.6f}" for x in figures)])
    if args.csv:
        rio.write_csv(args.csv, header, rows)
        print(f"wrote {args.csv}")
    else:
        _print_table(header, rows, pretty=args.pretty)
    if args.timeline:
        timeline_rows = []
        for path in args.runs:
            events_path = _events_path(path)
            if not os.path.isfile(events_path):
                raise OSError(f"{path}: its events log {events_path} is missing")
            try:
                timeline = derive(_read_events(events_path)).timeline
            except (KeyError, ValueError) as exc:
                raise OSError(f"{events_path} is not the events log of one run: "
                              f"{type(exc).__name__}: {exc}") from exc
            timeline_rows += [[os.path.basename(path), *row] for row in timeline]
        rio.write_csv(args.timeline, ["run", "worker_id", "start", "end", "activity"],
                      timeline_rows)
        print(f"wrote {args.timeline}")
    return EXIT_OK


def _emit_table(args, header: list[str], rows: list[list]) -> None:
    if getattr(args, "out", None):
        rio.write_csv(args.out, header, rows)
        print(f"wrote {args.out}")
    else:
        _print_table(header, rows, pretty=getattr(args, "pretty", False))


def _print_table(header: list[str], rows: list[list], pretty: bool) -> None:
    if not pretty:
        buf = stringio.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        sys.stdout.write(buf.getvalue())
        return
    widths = [max(len(str(h)), *(len(str(r[i])) for r in rows)) if rows else len(str(h))
              for i, h in enumerate(header)]
    print("  ".join(str(h).ljust(w) for h, w in zip(header, widths)))
    for row in rows:
        print("  ".join(str(v).ljust(w) for v, w in zip(row, widths)))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rhymesim",
        description="History-driven speculative rollout drafting and pipeline "
                    "scheduling, with a deterministic desk-scale simulator.",
    )
    parser.add_argument("--version", action="version",
                        version=f"rhymesim schemas: {json.dumps(SCHEMA_VERSIONS, sort_keys=True)}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-trace", help="synthesize a multi-epoch rollout trace")
    p.add_argument("--spec", required=True, help="trace spec JSON (TraceSpec fields)")
    p.add_argument("--out", required=True, help="output trace JSONL path")
    p.add_argument("--seed", type=int, default=None, help="override the spec seed")
    p.set_defaults(func=cmd_gen_trace)

    analyze = sub.add_parser("analyze", help="compute metrics over a trace")
    asub = analyze.add_subparsers(dest="analysis", required=True)

    p = asub.add_parser("rank", help="rank-stability metrics per epoch pair")
    p.add_argument("--trace", required=True)
    p.add_argument("--groups", type=int, default=8)
    p.add_argument("--epochs", default=None, help="epoch pair A,B (default: all adjacent)")
    p.add_argument("--out", default=None, help="CSV output path (default: stdout)")
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(func=cmd_analyze_rank)

    p = asub.add_parser("similarity", help="token-similarity replay per epoch pair: each "
                        "response walks its prompt's suffix index over the previous epoch")
    p.add_argument("--trace", required=True)
    p.add_argument("--prefix", type=int, default=3)
    p.add_argument("--epochs", default=None, help="epoch pair A,B (default: all adjacent)")
    p.add_argument("--out", default=None)
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(func=cmd_analyze_similarity)

    p = asub.add_parser("tree-stats", help="suffix-index statistics for one epoch "
                        "(total_nodes counts suffix automaton states; index_bytes sums "
                        "the memory of each prompt's index, built and dropped one at "
                        "a time)")
    p.add_argument("--trace", required=True)
    p.add_argument("--epoch", type=int, default=None, help="default: last epoch")
    p.add_argument("--out", default=None, help="JSON output path (default: stdout)")
    p.set_defaults(func=cmd_analyze_tree_stats)

    p = sub.add_parser("plan-alloc", help="two-tier worker allocation for group lengths")
    p.add_argument("--lens", required=True, type=_group_lens,
                   help="comma-separated ascending group lengths, at least 2, each >= 0")
    p.add_argument("--wks", type=_positive_int, required=True)
    p.add_argument("--t-train", type=_nonnegative, default=0.0, dest="t_train")
    p.add_argument("--profile", default=None, help="CSV len,dp,seconds profile for tau")
    p.add_argument("--analytic", type=_analytic_terms, default="0.004,0.0008,0.0,16",
                   help="a,b,c,batch (each >= 0) for tau = l*(a+b*ceil(batch/dp))+c")
    p.add_argument("--accepted-per-pass", type=_nonnegative, default=0.0)
    p.add_argument("--min-wks", type=int, default=1)
    p.add_argument("--max-wks", type=int, default=None)
    p.add_argument("--precision", type=_positive, default=1.0)
    p.add_argument("--out", default=None, help="JSON output (default: stdout)")
    p.set_defaults(func=cmd_plan_alloc)

    p = sub.add_parser("run-sim",
                       help="simulate the pipeline over a trace (deterministic: the same "
                            "inputs give byte-identical outputs)")
    p.add_argument("--trace", required=True)
    p.add_argument("--cluster", required=True, help="flat JSON config (cluster.* cost.* spec.* policy.*)")
    p.add_argument("--policy", required=True, choices=POLICIES)
    p.add_argument("--out", required=True,
                   help="run JSON output path; the event log is written beside it, "
                        "its extension replaced by .events.jsonl")
    spec_group = p.add_mutually_exclusive_group()
    spec_group.add_argument("--speculation", dest="speculation", action="store_true", default=None)
    spec_group.add_argument("--no-speculation", dest="speculation", action="store_false")
    p.add_argument("--no-migration", action="store_true")
    p.add_argument("--oversample", type=float, default=None, help="oversample percent")
    p.set_defaults(func=cmd_run_sim)

    p = sub.add_parser("report", help="compare runs and export CSV/timelines")
    p.add_argument("--runs", nargs="+", required=True)
    p.add_argument("--csv", default=None, help="comparison CSV path (default: stdout)")
    p.add_argument("--timeline", default=None,
                   help="per-worker timeline CSV path; the timeline is derived from each "
                        "run's events log, the run JSON path with its extension replaced "
                        "by .events.jsonl")
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_CONFIG
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InfeasiblePlanError as exc:
        print(f"error: infeasible plan: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
