"""Single entry point tying generation, analysis, planning, and simulation.

Config files are flat JSON key-value maps with dotted keys (for example
"cluster.rollout_workers" or "cost.train_base"); unknown keys and values of
the wrong JSON type are rejected so typos fail loudly. A run config holds
only the simulated deployment, `cluster.*` and `cost.*`: `run-sim`'s flags
choose the policy. Outputs are machine-readable by default and written
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
from collections.abc import Callable
from dataclasses import asdict, fields

from . import io as rio
from .events import EVENTS_SCHEMA_VERSION, SPEC_STATS_HEADER, check_record, derive
from .history import build_tree
from .sim import (
    POLICIES,
    RUN_SCHEMA_VERSION,
    ClusterSpec,
    CostConfig,
    InfeasiblePlanError,
    Policy,
    histospec,
    plan_step,
    run,
)
from .tracegen import Trace, TraceSpec, generate, rank_metrics, token_similarity_replay

SCHEMA_VERSIONS = {
    "trace": rio.TRACE_SCHEMA_VERSION,
    "run": RUN_SCHEMA_VERSION,
    "events": EVENTS_SCHEMA_VERSION,
    "plan": 2,
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


# The JSON values a config field of each annotated type takes. An int field
# holds a count, a size or a seed: 8.5, 8.0 or true would pass its range
# checks and fail deep inside a run.
_JSON_TYPES = {
    "int": ((int,), "an integer"),
    "float": ((int, float), "a number"),
}


def _build_dataclass(cls, values: dict, where: str):
    types = {f.name: f.type for f in fields(cls)}
    unknown = set(values) - set(types)
    if unknown:
        raise ConfigError(f"unknown {where} keys: {sorted(unknown)}")
    for key, value in values.items():
        wanted = _JSON_TYPES.get(types[key])
        if wanted and type(value) not in wanted[0]:
            raise ConfigError(f"bad {where} config: {key} must be {wanted[1]}, got {value!r}")
    try:
        return cls(**values)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {where} config: {exc}") from exc


def load_run_config(path: str) -> tuple[ClusterSpec, CostConfig]:
    cfg = _load_flat_config(path)
    cluster = _build_dataclass(ClusterSpec, _pop_section(cfg, "cluster"), "cluster")
    cost = _build_dataclass(CostConfig, _pop_section(cfg, "cost"), "cost")
    if cfg:
        raise ConfigError(f"unknown config keys: {sorted(cfg)}")
    return cluster, cost


def load_trace_spec(path: str) -> TraceSpec:
    cfg = _load_flat_config(path)
    return _build_dataclass(TraceSpec, cfg, "trace spec")


def _epoch_pair(text: str) -> tuple[int, int]:
    """`--epochs A,B`: two integers."""
    try:
        first, second = (int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected EPOCH,EPOCH, got {text!r}") from None
    return first, second


def _int_at_least(low: int) -> Callable[[str], int]:
    """An argparse type for integers >= `low`: any other value is a usage
    error that names the flag."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
        return value
    return parse


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


def _epoch_pairs(trace: Trace, pair: tuple[int, int] | None) -> list[tuple[int, int]]:
    """The pair named by --epochs, which must be in the trace, or every
    adjacent pair of the trace's epochs."""
    if pair:
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


def cmd_plan_alloc(args) -> int:
    trace = Trace(rio.read_trace(args.trace))
    cluster, cost = load_run_config(args.cluster)
    replayed = histospec(trace) if args.speculation else {}
    plan = plan_step(trace, replayed, args.step, cluster, cost, args.t_train)
    # The two fields as the step's step_boundary event holds them.
    payload = {
        "schema": SCHEMA_VERSIONS["plan"],
        "step": args.step,
        "allocation": plan.allocation.as_dict(),
        "workers": {str(w): g for w, g in sorted(plan.worker_groups.items())},
    }
    if args.out:
        rio.write_json(args.out, payload)
    else:
        print(json.dumps(payload, indent=2, sort_keys=True))
    return EXIT_OK


def _events_path(run_path: str) -> str:
    """Where run-sim writes the event log of the run JSON at `run_path`."""
    return os.path.splitext(run_path)[0] + ".events.jsonl"


def _read_events(events_path: str) -> list[dict]:
    """A run's events log, one event record per line. A line that is not
    JSON or not an event record is an I/O error naming the log and the
    line."""
    events = []
    with open(events_path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            try:
                events.append(check_record(json.loads(line)))
            except ValueError as exc:
                raise OSError(f"{events_path} line {lineno} is not an event record: "
                              f"{type(exc).__name__}: {exc}") from exc
    return events


def cmd_run_sim(args) -> int:
    trace = Trace(rio.read_trace(args.trace))
    cluster, cost = load_run_config(args.cluster)
    policy = Policy(args.policy, speculation=args.speculation, migration=not args.no_migration,
                    oversample_pct=args.oversample)
    result = run(trace, cluster, policy, cost)
    events_path = _events_path(args.out)
    rio.atomic_write_text(events_path, result.events_jsonl())
    payload = {
        "schema": RUN_SCHEMA_VERSION,
        "policy": policy.name,
        "policy_config": {
            "speculation": policy.speculation,
            "migration": policy.migration,
            "oversample_pct": policy.oversample_pct,
        },
        "trace": args.trace,
        "cluster_config": args.cluster,
        "metrics": asdict(result.metrics),
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


# The numbers `report` reads from a run JSON's metrics, and the stage shares
# it reads, each 0 when absent.
_REPORT_METRICS = ("samples_per_second", "bubble_fraction", "migration_pct",
                   "speculation_rate", "acceptance_rate")
_REPORT_SHARES = ("rollout", "train", "idle")


def _read_run(path: str) -> dict:
    """The run JSON at `path`, with every field `report` reads. A file that
    is not one is a config error naming the file and the first bad key."""
    try:
        payload = rio.read_json(path)
    except ValueError as exc:  # not JSON, or not UTF-8
        raise ConfigError(f"{path} is not JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ConfigError(f"{path}: a run JSON is an object, got {type(payload).__name__}")
    if payload.get("schema") != RUN_SCHEMA_VERSION:
        raise ConfigError(f"{path}: unsupported run schema {payload.get('schema')}")
    if not isinstance(payload.get("policy"), str):
        raise ConfigError(f"{path}: policy is missing or not a string")
    metrics = payload.get("metrics")
    if not isinstance(metrics, dict):
        raise ConfigError(f"{path}: metrics is missing or not an object")
    shares = metrics.get("stage_shares")
    if not isinstance(shares, dict):
        raise ConfigError(f"{path}: metrics.stage_shares is missing or not an object")
    for key in _REPORT_METRICS:
        if type(metrics.get(key)) not in (int, float):
            raise ConfigError(f"{path}: metrics.{key} is missing or not a number")
    for key in _REPORT_SHARES:
        if type(shares.get(key, 0.0)) not in (int, float):
            raise ConfigError(f"{path}: metrics.stage_shares.{key} is not a number")
    return payload


def cmd_report(args) -> int:
    runs = [(path, _read_run(path)) for path in args.runs]
    base_sps = runs[0][1]["metrics"]["samples_per_second"]
    header = ["run", "policy", "samples_per_second", "normalized_throughput",
              "bubble_fraction", "rollout_share", "train_share", "idle_share",
              "migration_pct", "speculation_rate", "acceptance_rate"]
    rows = []
    for path, payload in runs:
        m = payload["metrics"]
        shares = m["stage_shares"]
        normalized = f"{m['samples_per_second'] / base_sps:.6f}" if base_sps else "0"
        figures = (m["bubble_fraction"], *(shares.get(k, 0.0) for k in _REPORT_SHARES),
                   m["migration_pct"], m["speculation_rate"], m["acceptance_rate"])
        rows.append([os.path.basename(path), payload["policy"], f"{m['samples_per_second']:.6f}",
                     normalized, *(f"{x:.6f}" for x in figures)])
    # Every timeline is derived before any file is written, so a missing or
    # malformed events log leaves neither output behind.
    timeline_rows = []
    for path in args.runs if args.timeline else []:
        events_path = _events_path(path)
        if not os.path.isfile(events_path):
            raise OSError(f"{path}: its events log {events_path} is missing")
        try:
            timeline = derive(_read_events(events_path)).timeline
        except (KeyError, ValueError) as exc:
            raise OSError(f"{events_path} is not the events log of one run: "
                          f"{type(exc).__name__}: {exc}") from exc
        timeline_rows += [[os.path.basename(path), *row] for row in timeline]
    if args.csv:
        rio.write_csv(args.csv, header, rows)
        print(f"wrote {args.csv}")
    else:
        _print_table(header, rows, pretty=args.pretty)
    if args.timeline:
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
    p.add_argument("--seed", type=_int_at_least(0), default=None, help="override the spec seed")
    p.set_defaults(func=cmd_gen_trace)

    analyze = sub.add_parser("analyze", help="compute metrics over a trace")
    asub = analyze.add_subparsers(dest="analysis", required=True)

    p = asub.add_parser("rank", help="rank-stability metrics per epoch pair")
    p.add_argument("--trace", required=True)
    p.add_argument("--groups", type=int, default=8)
    p.add_argument("--epochs", type=_epoch_pair, default=None,
                   help="epoch pair A,B (default: all adjacent)")
    p.add_argument("--out", default=None, help="CSV output path (default: stdout)")
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(func=cmd_analyze_rank)

    p = asub.add_parser("similarity", help="token-similarity replay per epoch pair: each "
                        "response walks its prompt's suffix index over the previous epoch")
    p.add_argument("--trace", required=True)
    p.add_argument("--prefix", type=_int_at_least(1), default=3,
                   help="lookup prefix length in tokens, >= 1 (default: 3)")
    p.add_argument("--epochs", type=_epoch_pair, default=None,
                   help="epoch pair A,B (default: all adjacent)")
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

    p = sub.add_parser("plan-alloc",
                       help="the two-tier plan a histopipe_two_tier run makes for one step of "
                            "a trace: its allocation and worker -> group map, as the step's "
                            "step_boundary event holds them (exit 3 when no allocation fits)")
    p.add_argument("--trace", required=True)
    p.add_argument("--cluster", required=True,
                   help="run-sim's flat JSON config (cluster.* cost.*)")
    p.add_argument("--step", type=int, required=True,
                   help="the step to plan, from 2 to the trace's last epoch")
    p.add_argument("--speculation", action="store_true",
                   help="plan a run with speculation, as run-sim --speculation does: the "
                        "HistoSpec replays of earlier epochs scale tau")
    p.add_argument("--t-train", type=_nonnegative, default=None, dest="t_train",
                   help="the duration of the last train job to end before the step is "
                        "planned (default: none has, and the cost model's train time of "
                        "the step's batch stands in)")
    p.add_argument("--out", default=None, help="JSON output (default: stdout)")
    p.set_defaults(func=cmd_plan_alloc)

    p = sub.add_parser("run-sim",
                       help="simulate the pipeline over a trace (deterministic: the same "
                            "inputs give byte-identical outputs)")
    p.add_argument("--trace", required=True)
    p.add_argument("--cluster", required=True, help="flat JSON config (cluster.* cost.*)")
    p.add_argument("--policy", required=True, choices=POLICIES)
    p.add_argument("--out", required=True,
                   help="run JSON output path; the event log is written beside it, "
                        "its extension replaced by .events.jsonl")
    spec_group = p.add_mutually_exclusive_group()
    spec_group.add_argument("--speculation", dest="speculation", action="store_true",
                            help="draft with HistoSpec (default: off)")
    spec_group.add_argument("--no-speculation", dest="speculation", action="store_false")
    p.add_argument("--no-migration", action="store_true")
    p.add_argument("--oversample", type=float, default=0.0,
                   help="oversample percent, in [0, 100) (default: 0)")
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
